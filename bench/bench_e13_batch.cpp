// E13 — batched servo lanes (src/batch/): N Monte-Carlo runs of the servo
// case study stepped in lockstep by one ServoBatch instead of one
// model-graph interpretation per run.  Each lane runs the scalar kernels
// run_mil's model runs (decoder latch, SpeedPi, PWM latch, ZohMap step),
// so the batch width changes no per-lane arithmetic.  Table (a) sweeps the
// batch width over an E4-style MIL gain sweep on one thread — the speedup
// is interpretation economics, not extra cores: no model build per run, no
// per-block virtual dispatch, and one schedule evaluation shared by all
// lanes.  Table (b) replays an E11-style MIL load-torque fault campaign
// through the batched engine and byte-compares the campaign report against
// the scalar path.  Identity is asserted in-bench (bitwise IAE per run +
// byte-identical campaign JSON); the full trajectory-level contract is
// locked by tests/batch_test.cpp.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "batch/servo_batch.hpp"
#include "bench_util.hpp"
#include "campaign/engine.hpp"
#include "core/case_study.hpp"
#include "exec/sweep.hpp"
#include "fault/campaign.hpp"
#include "fault/sites.hpp"

using namespace iecd;

namespace {

std::size_t sweep_runs() {
  if (bench::overrides().runs > 0) return bench::overrides().runs;
  return bench::smoke() ? 16 : 64;
}
double sweep_duration() { return bench::smoke() ? 0.2 : 0.5; }

std::size_t campaign_runs() {
  if (bench::overrides().runs > 0) return bench::overrides().runs;
  return bench::smoke() ? 4 : 24;
}
double campaign_duration() { return bench::smoke() ? 0.2 : 0.4; }

std::size_t campaign_threads() {
  return bench::overrides().threads > 0 ? bench::overrides().threads : 1;
}
std::size_t campaign_batch() {
  return bench::overrides().batch > 0 ? bench::overrides().batch : 8;
}

core::ServoConfig sweep_config(std::size_t index) {
  core::ServoConfig cfg;
  cfg.duration_s = sweep_duration();
  cfg.setpoint_time = 0.02;
  cfg.kp = 0.002 + 0.0001 * static_cast<double>(index % 16);
  cfg.ki = 0.08 + 0.005 * static_cast<double>(index % 8);
  cfg.setpoint = 80.0 + 10.0 * static_cast<double>(index % 5);
  return cfg;
}

batch::ServoLane lane_for(std::size_t index) {
  const core::ServoConfig cfg = sweep_config(index);
  batch::ServoLane lane;
  lane.setpoint = cfg.setpoint;
  lane.setpoint_time = cfg.setpoint_time;
  lane.kp = cfg.kp;
  lane.ki = cfg.ki;
  lane.motor = cfg.motor;
  return lane;
}

batch::ServoBatchConfig batch_config(std::int64_t pwm_modulo) {
  const core::ServoConfig cfg = sweep_config(0);
  batch::ServoBatchConfig bc;
  bc.period_s = cfg.period_s;
  bc.duration_s = cfg.duration_s;
  bc.encoder_lines = cfg.encoder_lines;
  bc.speed_filter_taps = cfg.speed_filter_taps;
  bc.hw_fidelity = cfg.mil_hw_fidelity;
  bc.pwm_modulo = pwm_modulo;
  return bc;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ----------------------------------------------------------- table (a)

void sweep_table(std::int64_t pwm_modulo) {
  const std::size_t runs = sweep_runs();
  std::printf("(a) MIL gain sweep, %zu runs x %.1f s, one thread: scalar "
              "engine vs batch widths\n\n",
              runs, sweep_duration());
  std::printf("%-10s | %-10s %-12s %-9s %-9s\n", "engine", "wall[ms]",
              "runs/s", "speedup", "identical");
  bench::print_rule(58);

  // Scalar baseline: what a sweep pays today — one model graph built and
  // interpreted per run (exec::SweepRunner, threads = 1).
  std::vector<double> scalar_iae(runs, 0.0);
  exec::SweepRunner scalar_runner({.threads = 1});
  bench::Stopwatch scalar_watch;
  scalar_runner.run(
      runs, exec::SweepRunner::Scenario(
                [&](std::size_t i, trace::MetricsRegistry& metrics) {
                  core::ServoSystem servo(sweep_config(i));
                  const auto result = servo.run_mil();
                  scalar_iae[i] = result.iae;
                  metrics.stats("sweep.iae").add(result.iae);
                }));
  const double scalar_ms = scalar_watch.elapsed_ms();
  const double scalar_rps = 1000.0 * static_cast<double>(runs) / scalar_ms;
  std::printf("%-10s | %-10.1f %-12.1f %-9s %-9s\n", "scalar", scalar_ms,
              scalar_rps, "1.00", "-");
  bench::summarize("batch.scalar_runs_per_s", scalar_rps);

  double w8_rps = 0.0;
  for (const std::size_t width : {1u, 4u, 8u, 16u}) {
    std::vector<double> batched_iae(runs, 0.0);
    exec::SweepRunner runner({.threads = 1, .batch = width});
    bench::Stopwatch watch;
    runner.run(
        runs,
        exec::SweepRunner::BatchScenario(
            [&](std::size_t first, std::span<trace::MetricsRegistry> m) {
              std::vector<batch::ServoLane> lanes;
              lanes.reserve(m.size());
              for (std::size_t k = 0; k < m.size(); ++k) {
                lanes.push_back(lane_for(first + k));
              }
              const auto results =
                  batch::run_servo_batch(batch_config(pwm_modulo), lanes);
              for (std::size_t k = 0; k < m.size(); ++k) {
                batched_iae[first + k] = results[k].iae;
                m[k].stats("sweep.iae").add(results[k].iae);
              }
            }));
    const double ms = watch.elapsed_ms();
    const double rps = 1000.0 * static_cast<double>(runs) / ms;

    bool identical = true;
    for (std::size_t i = 0; i < runs; ++i) {
      identical = identical && bits(batched_iae[i]) == bits(scalar_iae[i]);
    }
    std::printf("%-10s | %-10.1f %-12.1f %-9.2f %-9s\n",
                ("batch w" + std::to_string(width)).c_str(), ms, rps,
                rps / scalar_rps, identical ? "yes" : "NO");

    const std::string key = "batch.w" + std::to_string(width);
    bench::summarize(key + "_runs_per_s", rps);
    bench::summarize(key + "_identical", identical ? 1.0 : 0.0);
    if (width == 8) w8_rps = rps;
  }
  // The CI-gated headline: batched width 8 vs the scalar engine.
  bench::summarize("batch.speedup_ratio", w8_rps / scalar_rps);
}

// ----------------------------------------------------------- table (b)

fault::CampaignOptions campaign_options() {
  fault::CampaignOptions opts;
  opts.name = "servo_mil_torque";
  opts.seed = 2026;
  opts.runs = campaign_runs();
  opts.threads = campaign_threads();
  opts.plan.torque_pulse_rate_hz = 20.0;
  opts.plan.torque_pulse_nm = 0.03;
  opts.plan.torque_pulse_s = 0.02;
  return opts;
}

void campaign_table(std::int64_t pwm_modulo) {
  const double duration = campaign_duration();
  std::printf("\n(b) MIL load-torque fault campaign, %zu runs x %.1f s, one "
              "thread: scalar vs batched (w8)\n\n",
              campaign_runs(), duration);
  std::printf("%-10s | %-10s %-12s %-9s %-10s\n", "engine", "wall[ms]",
              "runs/s", "speedup", "report");
  bench::print_rule(58);

  auto config = [&] {
    core::ServoConfig cfg;
    cfg.duration_s = duration;
    cfg.setpoint_time = 0.02;
    return cfg;
  }();

  campaign::EngineOptions eo;
  eo.campaign = campaign_options();
  bench::Stopwatch scalar_watch;
  const auto scalar_report =
      campaign::CampaignEngine(eo)
          .run(fault::CampaignScenario([&](fault::RunContext& ctx) {
            core::ServoSystem servo(config);
            if (auto load =
                    fault::make_load_torque(ctx.injector, duration)) {
              servo.motor_block().set_load(std::move(load));
            }
            const auto result = servo.run_mil();
            ctx.metrics.stats("campaign.iae").add(result.iae);
            return result.metrics.settled;
          }))
          .report;
  const double scalar_ms = scalar_watch.elapsed_ms();
  const double scalar_rps =
      1000.0 * static_cast<double>(campaign_runs()) / scalar_ms;
  std::printf("%-10s | %-10.1f %-12.1f %-9s %-10s\n", "scalar", scalar_ms,
              scalar_rps, "1.00", "-");
  bench::summarize("batch.campaign.scalar_runs_per_s", scalar_rps);

  eo.campaign.batch = campaign_batch();
  bench::Stopwatch watch;
  const auto batched_report =
      campaign::CampaignEngine(eo)
          .run(fault::BatchCampaignScenario(
              [&](std::span<fault::RunContext> lanes,
                  std::span<bool> recovered) {
                std::vector<batch::ServoLane> bl;
                bl.reserve(lanes.size());
                for (auto& lane : lanes) {
                  batch::ServoLane b;
                  b.setpoint = config.setpoint;
                  b.setpoint_time = config.setpoint_time;
                  b.kp = config.kp;
                  b.ki = config.ki;
                  b.motor = config.motor;
                  b.load = fault::make_load_torque(lane.injector, duration);
                  bl.push_back(std::move(b));
                }
                batch::ServoBatchConfig bc;
                bc.duration_s = duration;
                bc.pwm_modulo = pwm_modulo;
                const auto results = batch::run_servo_batch(bc, bl);
                for (std::size_t k = 0; k < lanes.size(); ++k) {
                  lanes[k].metrics.stats("campaign.iae")
                      .add(results[k].iae);
                  recovered[k] = results[k].metrics.settled;
                }
              }))
          .report;
  const double ms = watch.elapsed_ms();
  const double rps = 1000.0 * static_cast<double>(campaign_runs()) / ms;
  const bool identical =
      batched_report.to_json() == scalar_report.to_json();
  std::printf("%-10s | %-10.1f %-12.1f %-9.2f %-10s\n", "batch w8", ms, rps,
              rps / scalar_rps, identical ? "identical" : "DIFFERS");

  bench::summarize("batch.campaign.w8_runs_per_s", rps);
  bench::summarize("batch.campaign.speedup_ratio", rps / scalar_rps);
  bench::summarize("batch.campaign.report_identical", identical ? 1.0 : 0.0);
}

void print_table() {
  std::printf("E13: batched servo lanes — runs per second vs batch width "
              "(threads = 1)\n\n");
  // The solved PWM modulo the scalar servo runs MIL with; the batch
  // engine gets the same value for bit parity.
  const auto pwm_modulo = core::pwm_modulo(sweep_config(0));

  sweep_table(pwm_modulo);
  campaign_table(pwm_modulo);

  std::printf("\nexpected shape: one schedule stepping N lanes through the "
              "scalar kernels beats N\nmodel-graph interpretations well "
              "before any parallelism — the CI gate holds\n"
              "batch.speedup_ratio (w8 vs scalar) at >= 3x with every lane "
              "bit-identical to its\nscalar run.\n\n");
}

// -------------------------------------------------- microbenchmarks

void BM_ScalarMilRun(benchmark::State& state) {
  for (auto _ : state) {
    core::ServoConfig cfg = sweep_config(0);
    cfg.duration_s = 0.1;
    core::ServoSystem servo(cfg);
    auto result = servo.run_mil();
    benchmark::DoNotOptimize(result.iae);
  }
}
BENCHMARK(BM_ScalarMilRun)->Unit(benchmark::kMillisecond);

void BM_ServoBatchRun(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  std::vector<batch::ServoLane> lanes;
  for (std::size_t k = 0; k < width; ++k) lanes.push_back(lane_for(k));
  batch::ServoBatchConfig bc;
  bc.duration_s = 0.1;
  bc.pwm_modulo = core::pwm_modulo(sweep_config(0));
  for (auto _ : state) {
    auto results = batch::run_servo_batch(bc, lanes);
    benchmark::DoNotOptimize(results.back().iae);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(width));
}
BENCHMARK(BM_ServoBatchRun)->Arg(1)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace

IECD_BENCH_MAIN(print_table)
