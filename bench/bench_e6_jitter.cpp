// E6 (Section 1) — "Timing variations in sampling periods and latencies
// degrade the control performance and may in extreme cases lead to the
// instability."  The TrueTime-style experiment the paper motivates with:
// sweep (a) deterministic sampling jitter injected into the timer and
// (b) extra input-output latency charged to every control step, and watch
// the control cost (IAE) grow until the loop falls apart.
//
// Timing figures come from the online obs::TimingMonitor attached to each
// run (jitter / response histograms + deadline-miss counts at dispatch
// retirement) instead of being reassembled post-hoc from retained sample
// vectors.  The monitors are passive, so IAE / jitter / miss values are
// identical to the pre-rebase snapshot (bench/trajectory/{pre,post}).  The
// histogram percentiles are cross-checked against an exact per-activation
// reference in tests/obs_test.cpp
// (ObsEndToEnd.ExecHistogramMatchesTracedDispatchSeries).
#include <cstdio>

#include "bench_util.hpp"
#include "core/case_study.hpp"
#include "obs/health_report.hpp"
#include "obs/monitor.hpp"

using namespace iecd;

namespace {

core::ServoConfig bench_config() {
  core::ServoConfig cfg;
  cfg.duration_s = 0.8;
  // Push the crossover toward the Nyquist rate so timing perturbations
  // eat directly into the phase margin.
  cfg.kp = 0.012;
  cfg.ki = 0.5;
  cfg.speed_filter_taps = 4;
  return cfg;
}

/// Headline figures read straight off the monitor.
struct TimingFigures {
  double jitter_max_us = 0.0;  ///< max |interval - nominal period|
  double resp_max_us = 0.0;    ///< max (dispatch wait + execution)
  std::uint64_t misses = 0;    ///< activations with response > period
};

TimingFigures figures_from_monitor(const obs::MonitorHub& hub) {
  TimingFigures f;
  if (const obs::TimingMonitor* mon = hub.find_timing("servo_hil_step")) {
    f.jitter_max_us = mon->jitter_us().max();
    f.resp_max_us = mon->worst_response_us();
    f.misses = mon->deadline_misses();
  }
  return f;
}

void print_table() {
  std::printf("E6: control quality vs timing perturbations (1 kHz servo "
              "loop)\n\n");

  core::ServoSystem baseline(bench_config());
  obs::MonitorHub clean_hub;
  core::ServoSystem::HilOptions clean_opts;
  clean_opts.monitors = &clean_hub;
  const auto clean = baseline.run_hil(clean_opts);
  const auto clean_fig = figures_from_monitor(clean_hub);
  std::printf("clean loop: IAE %.3f, jitter %.2f us peak\n\n", clean.iae,
              clean.jitter_us);
  bench::summarize("e6.clean.iae", clean.iae);
  bench::summarize("e6.clean.jitter_max_us", clean_fig.jitter_max_us);
  bench::summarize("e6.clean.misses",
                   static_cast<double>(clean_fig.misses));

  std::printf("(a) sampling jitter sweep (alternating +/- offset per "
              "activation)\n\n");
  std::printf("%-12s | %-10s %-10s %-11s %-7s %-9s %-9s\n", "jitter[us]",
              "IAE", "IAE ratio", "jit max[us]", "miss", "over[%]",
              "settled");
  bench::print_rule(78);
  const std::int64_t amplitudes_us[] = {0, 100, 200, 300, 400, 450};
  for (auto amp : amplitudes_us) {
    core::ServoSystem servo(bench_config());
    obs::MonitorHub hub;
    core::ServoSystem::HilOptions opts;
    opts.monitors = &hub;
    if (amp > 0) {
      opts.timer_jitter = [amp](std::uint64_t k) {
        return (k % 2 == 0) ? sim::microseconds(amp)
                            : -sim::microseconds(amp);
      };
    }
    const auto hil = servo.run_hil(opts);
    const auto fig = figures_from_monitor(hub);
    std::printf("%-12lld | %-10.3f %-10.2f %-11.1f %-7llu %-9.2f %s\n",
                static_cast<long long>(amp), hil.iae, hil.iae / clean.iae,
                fig.jitter_max_us,
                static_cast<unsigned long long>(fig.misses),
                hil.metrics.overshoot_percent,
                hil.metrics.settled ? "yes" : "NO");
    const std::string key = "e6.jitter.amp" + std::to_string(amp);
    bench::summarize(key + ".iae", hil.iae);
    bench::summarize(key + ".jitter_max_us", fig.jitter_max_us);
    bench::summarize(key + ".misses", static_cast<double>(fig.misses));
  }

  std::printf("\n(b) input-output latency sweep (busy cycles added to every "
              "step; 60 cycles = 1 us)\n\n");
  std::printf("%-14s | %-10s %-10s %-12s %-7s %-9s %-9s\n", "latency[us]",
              "IAE", "IAE ratio", "resp max[us]", "miss", "CPU[%]",
              "settled");
  bench::print_rule(80);
  const std::uint64_t latencies_us[] = {0, 100, 200, 400, 600, 800, 900};
  for (auto lat : latencies_us) {
    core::ServoSystem servo(bench_config());
    obs::MonitorHub hub;
    core::ServoSystem::HilOptions opts;
    opts.monitors = &hub;
    opts.extra_latency_cycles = lat * 60;  // 60 MHz core
    const auto hil = servo.run_hil(opts);
    const auto fig = figures_from_monitor(hub);
    std::printf("%-14llu | %-10.3f %-10.2f %-12.1f %-7llu %-9.1f %s\n",
                static_cast<unsigned long long>(lat), hil.iae,
                hil.iae / clean.iae, fig.resp_max_us,
                static_cast<unsigned long long>(fig.misses),
                hil.cpu_utilisation * 100.0,
                hil.metrics.settled ? "yes" : "NO");
    const std::string key = "e6.latency.lat" + std::to_string(lat);
    bench::summarize(key + ".iae", hil.iae);
    bench::summarize(key + ".resp_max_us", fig.resp_max_us);
    bench::summarize(key + ".misses", static_cast<double>(fig.misses));
  }
  std::printf("\n(c) instability onset: slower sampling stacked with "
              "near-period latency\n\n");
  std::printf("%-24s | %-10s %-7s %-9s %-9s\n", "period + latency", "IAE",
              "miss", "over[%]", "settled");
  bench::print_rule(66);
  for (const double period_ms : {1.0, 2.0, 5.0}) {
    core::ServoConfig cfg = bench_config();
    cfg.period_s = period_ms * 1e-3;
    core::ServoSystem servo(cfg);
    obs::MonitorHub hub;
    core::ServoSystem::HilOptions opts;
    opts.monitors = &hub;
    // 90% of the period spent between sampling and actuation.
    opts.extra_latency_cycles =
        static_cast<std::uint64_t>(0.9 * cfg.period_s * 60e6);
    const auto hil = servo.run_hil(opts);
    const auto fig = figures_from_monitor(hub);
    std::printf("%4.0f ms + %4.1f ms        | %-10.3f %-7llu %-9.1f %s\n",
                period_ms, 0.9 * period_ms, hil.iae,
                static_cast<unsigned long long>(fig.misses),
                hil.metrics.overshoot_percent,
                hil.metrics.settled ? "yes" : "NO (lost the loop)");
    const std::string key =
        "e6.stack.p" + std::to_string(static_cast<int>(period_ms));
    bench::summarize(key + ".iae", hil.iae);
    bench::summarize(key + ".misses", static_cast<double>(fig.misses));
    bench::summarize(key + ".settled", hil.metrics.settled ? 1.0 : 0.0);
    // The harshest point leaves its full health report as an artifact.
    if (period_ms == 5.0) {
      hub.report("e6_stack_5ms").write_json("HEALTH_bench_e6_jitter.json");
    }
  }

  std::printf("\nexpected shape: monotone cost growth; stacking sampling "
              "delay and latency\neats the phase margin until the loop is "
              "lost (the paper's instability case).\n\n");
}

void BM_HilWithJitter(benchmark::State& state) {
  for (auto _ : state) {
    core::ServoSystem servo(bench_config());
    core::ServoSystem::HilOptions opts;
    opts.timer_jitter = [](std::uint64_t k) {
      return (k % 2 == 0) ? sim::microseconds(200)
                          : -sim::microseconds(200);
    };
    auto hil = servo.run_hil(opts);
    benchmark::DoNotOptimize(hil.iae);
  }
}
BENCHMARK(BM_HilWithJitter)->Unit(benchmark::kMillisecond);

}  // namespace

IECD_BENCH_MAIN(print_table)
