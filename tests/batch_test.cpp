// Batched servo core: the determinism contract (every lane bit-identical
// to the scalar engine), divergence masking, the batched sweep/campaign
// plumbing, and the hardware latch conversions the lanes share with the
// PE blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "batch/servo_batch.hpp"
#include "batch/speed_pi.hpp"
#include "campaign/engine.hpp"
#include "codegen/generator.hpp"
#include "codegen/signal_buffer.hpp"
#include "core/case_study.hpp"
#include "exec/sweep.hpp"
#include "fault/campaign.hpp"
#include "fault/sites.hpp"
#include "periph/pwm.hpp"
#include "periph/quadrature_decoder.hpp"
#include "plant/dc_motor.hpp"

#include "golden/campaign_reports.inc"

namespace iecd {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_logs_identical(const model::SampleLog& a,
                           const model::SampleLog& b,
                           const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits(a.time_at(i)), bits(b.time_at(i)))
        << what << " time sample " << i;
    ASSERT_EQ(bits(a.value_at(i)), bits(b.value_at(i)))
        << what << " value sample " << i << " t=" << a.time_at(i);
  }
}

void expect_metrics_identical(const model::StepMetrics& a,
                              const model::StepMetrics& b) {
  EXPECT_EQ(bits(a.rise_time), bits(b.rise_time));
  EXPECT_EQ(bits(a.overshoot_percent), bits(b.overshoot_percent));
  EXPECT_EQ(bits(a.settling_time), bits(b.settling_time));
  EXPECT_EQ(bits(a.steady_state_error), bits(b.steady_state_error));
  EXPECT_EQ(bits(a.peak_value), bits(b.peak_value));
  EXPECT_EQ(a.settled, b.settled);
}

batch::ServoBatchConfig batch_config_from(const core::ServoConfig& c) {
  batch::ServoBatchConfig cfg;
  cfg.period_s = c.period_s;
  cfg.duration_s = c.duration_s;
  cfg.encoder_lines = c.encoder_lines;
  cfg.speed_filter_taps = c.speed_filter_taps;
  cfg.hw_fidelity = c.mil_hw_fidelity;
  cfg.pwm_modulo = core::pwm_modulo(c);
  return cfg;
}

batch::ServoLane lane_from(const core::ServoConfig& c) {
  batch::ServoLane lane;
  lane.setpoint = c.setpoint;
  lane.setpoint_time = c.setpoint_time;
  lane.kp = c.kp;
  lane.ki = c.ki;
  lane.motor = c.motor;
  return lane;
}

void expect_lane_matches_scalar(const batch::ServoLaneResult& got,
                                const core::ServoSystem::MilResult& want,
                                const char* what) {
  expect_logs_identical(got.speed, want.speed, what);
  expect_logs_identical(got.duty, want.duty, what);
  expect_metrics_identical(got.metrics, want.metrics);
  EXPECT_EQ(bits(got.iae), bits(want.iae)) << what;
  EXPECT_FALSE(got.faulted) << what;
}

// ------------------------------------------------------------ identity

TEST(BatchIdentity, Width1MatchesScalarMil) {
  core::ServoConfig config;
  config.duration_s = 0.4;
  core::ServoSystem servo(config);
  const auto scalar = servo.run_mil();

  const batch::ServoLane lane = lane_from(config);
  const auto results = batch::run_servo_batch(
      batch_config_from(config), {&lane, 1});
  ASSERT_EQ(results.size(), 1u);
  expect_lane_matches_scalar(results[0], scalar, "width-1");
}

TEST(BatchIdentity, HeterogeneousLanesEachMatchOwnScalarRun) {
  core::ServoConfig base;
  base.duration_s = 0.3;

  std::vector<batch::ServoLane> lanes;
  std::vector<core::ServoConfig> configs;
  for (int k = 0; k < 8; ++k) {
    core::ServoConfig c = base;
    c.setpoint = 60.0 + 15.0 * k;
    c.setpoint_time = 0.02 + 0.01 * k;
    c.kp = 0.003 + 0.0004 * k;
    c.ki = 0.10 + 0.01 * k;
    c.motor.inertia = 1e-4 * (1.0 + 0.1 * k);
    c.motor.resistance = 1.0 + 0.2 * k;
    configs.push_back(c);
    lanes.push_back(lane_from(c));
  }

  const auto results = batch::run_servo_batch(
      batch_config_from(base), lanes);
  ASSERT_EQ(results.size(), lanes.size());
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    core::ServoSystem servo(configs[k]);
    const auto scalar = servo.run_mil();
    SCOPED_TRACE(k);
    expect_lane_matches_scalar(results[k], scalar, "lane");
  }
}

TEST(BatchIdentity, ValidatedPwmModuloMatchesScalar) {
  core::ServoConfig config;
  config.duration_s = 0.3;
  core::ServoSystem servo(config);
  servo.validate();  // derives the real PWM modulo into the bean
  const auto modulo =
      servo.pwm_block().bean().properties().get_int("modulo");
  ASSERT_GT(modulo, 0);
  const auto scalar = servo.run_mil();

  const batch::ServoLane lane = lane_from(config);
  batch::ServoBatchConfig bc = batch_config_from(config);
  bc.pwm_modulo = modulo;
  const auto results = batch::run_servo_batch(bc, {&lane, 1});
  expect_lane_matches_scalar(results[0], scalar, "validated-modulo");
}

TEST(BatchIdentity, HardwareFidelityAblationMatchesScalar) {
  core::ServoConfig config;
  config.duration_s = 0.3;
  config.mil_hw_fidelity = false;
  config.encoder_lines = 16;
  core::ServoSystem servo(config);
  const auto scalar = servo.run_mil();

  const batch::ServoLane lane = lane_from(config);
  const auto results =
      batch::run_servo_batch(batch_config_from(config), {&lane, 1});
  expect_lane_matches_scalar(results[0], scalar, "ablation");
}

TEST(BatchIdentity, CoarseScheduleConfigMatchesScalar) {
  core::ServoConfig config;
  config.duration_s = 0.25;
  config.period_s = 0.002;
  config.encoder_lines = 32;
  config.speed_filter_taps = 3;
  core::ServoSystem servo(config);
  const auto scalar = servo.run_mil();

  const batch::ServoLane lane = lane_from(config);
  const auto results = batch::run_servo_batch(
      batch_config_from(config), {&lane, 1});
  expect_lane_matches_scalar(results[0], scalar, "coarse");
}

TEST(BatchIdentity, LoadTorqueLaneMatchesScalar) {
  core::ServoConfig config;
  config.duration_s = 0.3;

  auto pulse = [](double t, double) {
    return (t >= 0.1 && t < 0.15) ? 0.02 : 0.0;
  };
  core::ServoSystem servo(config);
  servo.motor_block().set_load(pulse);
  const auto scalar = servo.run_mil();

  batch::ServoLane lane = lane_from(config);
  lane.load = pulse;
  const auto results = batch::run_servo_batch(
      batch_config_from(config), {&lane, 1});
  expect_lane_matches_scalar(results[0], scalar, "load-torque");
}

// ------------------------------------------------------------- masking

TEST(BatchMask, EarlyFinishingLanesKeepNeighborsBitIdentical) {
  core::ServoConfig base;
  base.duration_s = 0.5;
  const double durations[4] = {0.2, 0.5, 0.35, 0.41};

  std::vector<batch::ServoLane> lanes;
  for (double d : durations) {
    batch::ServoLane lane = lane_from(base);
    lane.duration_s = d;
    lanes.push_back(lane);
  }
  const auto results = batch::run_servo_batch(
      batch_config_from(base), lanes);

  for (int k = 0; k < 4; ++k) {
    core::ServoConfig c = base;
    c.duration_s = durations[k];
    core::ServoSystem servo(c);
    const auto scalar = servo.run_mil();
    SCOPED_TRACE(k);
    expect_lane_matches_scalar(results[k], scalar, "early-finish lane");
  }
}

TEST(BatchMask, NonFiniteLaneIsRetiredAndNeighborsStayExact) {
  core::ServoConfig base;
  base.duration_s = 0.2;

  std::vector<batch::ServoLane> lanes(3, lane_from(base));
  // Middle lane: its load turns NaN at 50 ms, so its state goes
  // non-finite in that major step.
  lanes[1].load = [](double t, double) {
    return t >= 0.05 ? std::numeric_limits<double>::quiet_NaN() : 0.0;
  };

  batch::ServoBatch batch(batch_config_from(base),
                          lanes);
  batch.run();

  EXPECT_FALSE(batch.lane_faulted(0));
  EXPECT_TRUE(batch.lane_faulted(1));
  EXPECT_FALSE(batch.lane_faulted(2));

  // The faulted lane stops recording when it blows up...
  const auto faulted = batch.result(1);
  EXPECT_TRUE(faulted.faulted);
  EXPECT_LT(faulted.speed.size(), batch.result(0).speed.size());

  // ...and the healthy neighbors never see it.
  core::ServoSystem servo(base);
  const auto scalar = servo.run_mil();
  expect_lane_matches_scalar(batch.result(0), scalar, "neighbor 0");
  expect_lane_matches_scalar(batch.result(2), scalar, "neighbor 2");
}

TEST(BatchMask, RetiredLaneReadsNoLoadAfterRetirement) {
  // Lane 0 finishes at 0.1 s and lane 1 runs on to 0.3 s.  The load is
  // read once per major step while a lane is active: at t = 0, 1, ..., 99
  // ms for lane 0, and never again.
  core::ServoConfig base;
  base.duration_s = 0.3;
  std::vector<batch::ServoLane> lanes(2, lane_from(base));
  lanes[0].duration_s = 0.1;
  int calls = 0;
  double last_t = -1.0;
  lanes[0].load = [&](double t, double) {
    ++calls;
    last_t = t;
    return 0.001;
  };
  lanes[1].load = [](double, double) { return 0.001; };
  batch::ServoBatch batch(batch_config_from(base),
                          lanes);
  batch.run();
  EXPECT_EQ(calls, 100);
  EXPECT_NEAR(last_t, 0.099, 1e-12);
  EXPECT_EQ(batch.result(0).speed.size(), 100u);
  EXPECT_EQ(batch.result(1).speed.size(), 300u);
}

// --------------------------------------------------- speed-PI kernel

batch::SpeedPi default_pi() {
  const core::ServoConfig c;
  return batch::SpeedPi({c.kp, c.ki, c.period_s, c.encoder_lines});
}

/// One decoder count per control period, in rad/s, for the default servo.
double one_count_speed() {
  const core::ServoConfig c;
  return 2.0 * std::numbers::pi / (c.encoder_lines * 4.0 * c.period_s);
}

TEST(SpeedPi, PositionWrapReadsAsOneCount) {
  // The previous count starts at 0 (the model's prev_cnt UnitDelay), so the
  // first sample reads the whole position; the wrap then reads one count,
  // and the average is over the two samples seen.
  const double one = one_count_speed();
  batch::SpeedPi forward = default_pi();
  forward.step(32767, 0.0);
  forward.step(-32768, 0.0);
  EXPECT_EQ(forward.smoothed(), (one + one * 32767.0) / 2.0);

  batch::SpeedPi backward = default_pi();
  backward.step(-32768, 0.0);
  backward.step(32767, 0.0);
  EXPECT_EQ(backward.smoothed(), (-one + one * -32768.0) / 2.0);
}

TEST(SpeedPi, AverageDividesBySamplesSeenUntilTheWindowFills) {
  // Sample n reads n counts; the estimate sums the newest min(n, taps)
  // samples, newest first, and divides by how many it summed.
  const double one = one_count_speed();
  batch::SpeedPi pi = default_pi();
  double counts = 0.0;
  for (int n = 1; n <= 2 * batch::kSpeedFilterTaps; ++n) {
    counts += n;
    pi.step(counts, 0.0);
    const int seen = std::min(n, batch::kSpeedFilterTaps);
    double acc = one * n;
    for (int k = 1; k < seen; ++k) acc += one * (n - k);
    EXPECT_EQ(pi.smoothed(), acc / seen) << "sample " << n;
  }
}

TEST(SpeedPi, IntegratorBleedsOffAtTheDutyLimits) {
  batch::SpeedPi pi = default_pi();
  // Stalled shaft, unreachable set-point: the duty pins at 1, and the
  // back-calculation holds the integrator at the limit.  A plain
  // integrator would reach ki * T * 1000 * 2000 = 240.
  for (int i = 0; i < 2000; ++i) pi.step(0, 1000.0);
  EXPECT_EQ(pi.duty(), 1.0);
  EXPECT_NEAR(pi.integral(), 1.0, 1e-9);

  // Set-point below the shaft: the duty pins at 0 and the stored integral
  // bleeds off towards 0 instead of winding negative.
  pi.step(0, -1000.0);
  EXPECT_EQ(pi.duty(), 0.0);
  EXPECT_LT(pi.integral(), 1.0);
  for (int i = 0; i < 2000; ++i) {
    pi.step(0, -1000.0);
    ASSERT_EQ(pi.duty(), 0.0) << "tick " << i;
  }
  EXPECT_NEAR(pi.integral(), 0.0, 1e-9);
}

TEST(SpeedPi, ConstructorRejectsWhatValidateReports) {
  const batch::SpeedPiParams good{0.004, 0.12, 0.001, 100};
  EXPECT_TRUE(batch::validate(good).empty());
  batch::SpeedPiParams no_taps = good;
  no_taps.speed_filter_taps = 0;
  const auto diags = batch::validate(no_taps);
  ASSERT_EQ(diags.size(), 1u) << diags.to_string();
  EXPECT_EQ(diags.items()[0].component, "speed_filter_taps");
  EXPECT_THROW(batch::SpeedPi{no_taps}, std::invalid_argument);
}

// ---------------------------------------------------- hardware latches
// The one definition of each PE latch conversion, which the MIL blocks,
// the PIL decoder input and every batch lane call.

/// An angle in the middle of decoder count \p count at \p cpr.
double angle_of_count(double count, double cpr) {
  return (count + 0.5) / cpr * (2.0 * std::numbers::pi);
}

TEST(PeLatch, DecoderWrapsLikeTheSixteenBitRegister) {
  const double cpr = 400.0;
  EXPECT_EQ(periph::angle_to_counts(angle_of_count(0, cpr), cpr), 0);
  EXPECT_EQ(periph::angle_to_counts(angle_of_count(-1, cpr), cpr), -1);
  EXPECT_EQ(periph::angle_to_counts(angle_of_count(32767, cpr), cpr), 32767);
  EXPECT_EQ(periph::angle_to_counts(angle_of_count(32768, cpr), cpr), -32768);
  EXPECT_EQ(periph::angle_to_counts(angle_of_count(-32768, cpr), cpr),
            -32768);
  EXPECT_EQ(periph::angle_to_counts(angle_of_count(-32769, cpr), cpr), 32767);
  EXPECT_EQ(periph::angle_to_counts(angle_of_count(65536 + 5, cpr), cpr), 5);
}

TEST(PeLatch, DecoderLatchesZeroForAnAngleNoRegisterCanHold) {
  const double cpr = 400.0;
  for (double angle : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity(), 1e30,
                       -1e30}) {
    EXPECT_EQ(periph::angle_to_counts(angle, cpr), 0) << angle;
  }
}

TEST(PeLatch, PwmQuantizesToTheSolvedModulo) {
  const std::int64_t modulo = core::pwm_modulo(core::ServoConfig{});
  ASSERT_GT(modulo, 0);
  const double steps = static_cast<double>(modulo);
  EXPECT_EQ(periph::quantize_duty(0.5 + 0.4 / steps, modulo), 0.5);
  EXPECT_EQ(periph::quantize_duty(0.6 / steps, modulo), 1.0 / steps);
  EXPECT_EQ(periph::quantize_duty(-0.2, modulo), 0.0);
  EXPECT_EQ(periph::quantize_duty(1.3, modulo), 1.0);
  for (int i = 0; i <= 100; ++i) {
    const double ratio = 0.0101 * i;
    const double duty = periph::quantize_duty(ratio, modulo);
    EXPECT_EQ(periph::quantize_duty(duty, modulo), duty) << ratio;
    EXPECT_LE(std::abs(duty - std::min(ratio, 1.0)), 0.5 / steps + 1e-15)
        << ratio;
  }
}

TEST(PeLatch, PwmClampsOnlyAtModuloZero) {
  for (int i = -40; i <= 40; ++i) {
    const double ratio = 0.03 * i;
    EXPECT_EQ(bits(periph::quantize_duty(ratio, 0)),
              bits(std::clamp(ratio, 0.0, 1.0)))
        << ratio;
  }
}

// The servo's controller subsystem, as its PIL-variant generated step runs
// it, and batch::SpeedPi read one scripted decoder-count sequence and must
// write the same duty bits at every sample.  The script winds the 16-bit
// register forward past 32767 and back past -32768, and pins the duty on
// both rails; a closed-loop run never gets there (the default 1 s run
// peaks near 6,400 counts).
TEST(SpeedPiParity, GeneratedStepAndKernelWriteTheSameDuty) {
  const core::ServoConfig cfg;
  core::ServoSystem sys(cfg);
  codegen::SignalBuffer buffer;
  codegen::GeneratorOptions opts;
  opts.pil = true;
  opts.pil_buffer = &buffer;
  codegen::Generator gen;
  const codegen::GeneratedApplication app =
      gen.generate(sys.controller(), sys.project(), opts);
  const auto slot = [](const std::vector<std::string>& names,
                       const char* name) {
    return static_cast<std::size_t>(
        std::find(names.begin(), names.end(), name) - names.begin());
  };
  const std::size_t qd = slot(buffer.input_names(), "QD1");
  const std::size_t pwm = slot(buffer.output_names(), "PWM1");
  ASSERT_LT(qd, buffer.input_count());
  ASSERT_LT(pwm, buffer.output_count());

  // Counts per sample: still (the duty climbs to 1), fast forward (0),
  // fast reverse (1), then slow enough to leave both rails.
  std::vector<int> deltas;
  deltas.insert(deltas.end(), 150, 0);
  deltas.insert(deltas.end(), 40, 3000);
  deltas.insert(deltas.end(), 80, -3000);
  deltas.insert(deltas.end(), 200, 6);
  const double cpr = cfg.encoder_lines * 4.0;
  batch::SpeedPi pi({cfg.kp, cfg.ki, cfg.period_s, cfg.encoder_lines,
                     cfg.speed_filter_taps});
  std::int16_t counts = 0;
  int wraps_up = 0, wraps_down = 0, at_zero = 0, at_one = 0, inside = 0;
  for (std::size_t k = 0; k < deltas.size(); ++k) {
    const std::int16_t next = static_cast<std::int16_t>(
        static_cast<std::uint16_t>(counts + deltas[k]));
    wraps_up += deltas[k] > 0 && next < counts;
    wraps_down += deltas[k] < 0 && next > counts;
    counts = next;

    const double t = static_cast<double>(k) * cfg.period_s;
    const model::SimContext ctx{t, cfg.period_s, false};
    buffer.set_input(qd, angle_of_count(counts, cpr));
    app.tasks[0].read(ctx);
    app.tasks[0].compute(ctx);
    app.tasks[0].write(ctx);
    pi.step(counts, t >= cfg.setpoint_time ? cfg.setpoint : 0.0);
    ASSERT_EQ(bits(buffer.output(pwm)), bits(pi.duty()))
        << "sample " << k << " counts " << counts;
    at_zero += pi.duty() == 0.0;
    at_one += pi.duty() == 1.0;
    inside += pi.duty() > 0.0 && pi.duty() < 1.0;
  }
  EXPECT_GT(wraps_up, 0);
  EXPECT_GT(wraps_down, 0);
  EXPECT_GT(at_zero, 0);
  EXPECT_GT(at_one, 0);
  EXPECT_GT(inside, 0);
}

// -------------------------------------------------------- batched sweep

TEST(SweepBatch, ZeroRunsIsEmpty) {
  exec::SweepRunner runner({.threads = 4, .batch = 8});
  const auto result = runner.run(
      0, exec::SweepRunner::BatchScenario(
             [](std::size_t, std::span<trace::MetricsRegistry>) {
               FAIL() << "no groups expected";
             }));
  EXPECT_EQ(result.runs, 0u);
  EXPECT_TRUE(result.merged.empty());
  EXPECT_TRUE(result.per_run.empty());
}

TEST(SweepBatch, RemainderGroupGetsNarrowSpan) {
  exec::SweepRunner runner({.threads = 1, .batch = 4});
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  const auto result = runner.run(
      10, exec::SweepRunner::BatchScenario(
              [&](std::size_t first,
                  std::span<trace::MetricsRegistry> metrics) {
                groups.emplace_back(first, metrics.size());
                for (std::size_t k = 0; k < metrics.size(); ++k) {
                  metrics[k].gauge("run.index") =
                      static_cast<double>(first + k);
                }
              }));
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(groups[1], (std::pair<std::size_t, std::size_t>{4, 4}));
  EXPECT_EQ(groups[2], (std::pair<std::size_t, std::size_t>{8, 2}));
  ASSERT_EQ(result.per_run.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    const double* g = result.per_run[i].find_gauge("run.index");
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(*g, static_cast<double>(i));
  }
}

TEST(SweepBatch, FewerRunsThanThreadsAndWidth) {
  exec::SweepRunner runner({.threads = 8, .batch = 16});
  const auto result = runner.run(
      3, exec::SweepRunner::BatchScenario(
             [](std::size_t first, std::span<trace::MetricsRegistry> metrics) {
               EXPECT_EQ(first, 0u);
               EXPECT_EQ(metrics.size(), 3u);
               for (std::size_t k = 0; k < metrics.size(); ++k) {
                 metrics[k].counter("ran").increment();
               }
             }));
  EXPECT_EQ(result.threads_used, 1u);  // one group -> one worker
  const auto* c = result.merged.find_counter("ran");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 3u);
}

TEST(SweepBatch, MergedReportInvariantAcrossThreadsAndWidths) {
  auto scenario = exec::SweepRunner::BatchScenario(
      [](std::size_t first, std::span<trace::MetricsRegistry> metrics) {
        for (std::size_t k = 0; k < metrics.size(); ++k) {
          const auto index = static_cast<double>(first + k);
          metrics[k].counter("runs").increment();
          metrics[k].stats("value").add(std::sin(index) * 10.0);
        }
      });
  std::string reference;
  for (std::size_t threads : {1u, 2u, 5u}) {
    for (std::size_t batch : {1u, 3u, 4u, 16u}) {
      exec::SweepRunner runner({.threads = threads, .batch = batch});
      const std::string report = runner.run(13, scenario).merged.report();
      if (reference.empty()) {
        reference = report;
      } else {
        EXPECT_EQ(report, reference)
            << "threads=" << threads << " batch=" << batch;
      }
    }
  }
}

TEST(SweepBatch, BatchWidthOneMatchesScalarScenarioMerge) {
  auto fill = [](std::size_t index, trace::MetricsRegistry& metrics) {
    metrics.counter("runs").increment();
    metrics.gauge("last") = static_cast<double>(index);
    metrics.stats("value").add(1.0 / (1.0 + static_cast<double>(index)));
  };
  exec::SweepRunner scalar({.threads = 1});
  const std::string want =
      scalar
          .run(7, exec::SweepRunner::Scenario(fill))
          .merged.report();
  exec::SweepRunner batched({.threads = 2, .batch = 3});
  const std::string got =
      batched
          .run(7, exec::SweepRunner::BatchScenario(
                      [&](std::size_t first,
                          std::span<trace::MetricsRegistry> metrics) {
                        for (std::size_t k = 0; k < metrics.size(); ++k) {
                          fill(first + k, metrics[k]);
                        }
                      }))
          .merged.report();
  EXPECT_EQ(got, want);
}

// ----------------------------------------------------- batched campaign

// One MIL fault-campaign run, scalar engine: seeded load-torque pulses on
// the default servo, recovery = the loop still settles.
bool scalar_campaign_run(fault::RunContext& ctx, double duration) {
  core::ServoConfig config;
  config.duration_s = duration;
  core::ServoSystem servo(config);
  if (auto load = fault::make_load_torque(ctx.injector, duration)) {
    servo.motor_block().set_load(std::move(load));
  }
  const auto result = servo.run_mil();
  ctx.metrics.stats("campaign.iae").add(result.iae);
  if (result.metrics.settled) {
    ctx.metrics.counter("campaign.settled").increment();
  }
  return result.metrics.settled;
}

TEST(CampaignBatch, BatchedMilCampaignReportByteIdenticalToScalar) {
  const double duration = 0.25;
  fault::CampaignOptions options;
  options.name = "servo_mil_batch";
  options.seed = 2026;
  options.runs = 6;
  options.threads = 1;
  options.plan.torque_pulse_rate_hz = 20.0;
  options.plan.torque_pulse_nm = 0.03;
  options.plan.torque_pulse_s = 0.02;

  const auto run = [&options](std::size_t threads, std::size_t batch,
                               const auto& scenario) {
    campaign::EngineOptions eo;
    eo.campaign = options;
    eo.campaign.threads = threads;
    eo.campaign.batch = batch;
    return campaign::CampaignEngine(eo).run(scenario).report;
  };
  const auto scalar_report =
      run(1, 1, fault::CampaignScenario([&](fault::RunContext& ctx) {
            return scalar_campaign_run(ctx, duration);
          }));
  const std::string want = golden::kServoMilBatchJson;
  EXPECT_EQ(scalar_report.to_json(), want);
  EXPECT_EQ(scalar_report.runs, 6u);

  auto batch_scenario = fault::BatchCampaignScenario(
      [&](std::span<fault::RunContext> lanes, std::span<bool> recovered) {
        core::ServoConfig config;
        config.duration_s = duration;
        std::vector<batch::ServoLane> bl;
        for (auto& lane : lanes) {
          batch::ServoLane b = lane_from(config);
          b.load = fault::make_load_torque(lane.injector, duration);
          bl.push_back(std::move(b));
        }
        const auto results = batch::run_servo_batch(
            batch_config_from(config), bl);
        for (std::size_t k = 0; k < lanes.size(); ++k) {
          lanes[k].metrics.stats("campaign.iae").add(results[k].iae);
          if (results[k].metrics.settled) {
            lanes[k].metrics.counter("campaign.settled").increment();
          }
          recovered[k] = results[k].metrics.settled;
        }
      });

  for (std::size_t threads : {1u, 2u}) {
    for (std::size_t batch : {1u, 4u, 8u}) {
      EXPECT_EQ(run(threads, batch, batch_scenario).to_json(), want)
          << "threads=" << threads << " batch=" << batch;
    }
  }
}

}  // namespace
}  // namespace iecd
