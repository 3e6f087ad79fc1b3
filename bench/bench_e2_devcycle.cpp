// E2 (Fig. 6.1) — the PEERT development cycle.  One row per phase of the
// rapid development process (MIL -> code generation -> PIL -> HIL) on the
// servo case study: control quality stays consistent across phases while
// each later phase adds the real-time effects the earlier one abstracts
// away (sampling-to-actuation delay, communication latency).  Wall time
// per phase shows the whole cycle runs in seconds on a laptop.
#include <cstdio>

#include "bench_util.hpp"
#include "core/case_study.hpp"
#include "rt/schedulability.hpp"

using namespace iecd;

namespace {

core::ServoConfig bench_config() {
  core::ServoConfig cfg;
  cfg.duration_s = 0.8;
  return cfg;
}

void print_table() {
  std::printf("E2: development-cycle phases on the servo case study\n\n");
  std::printf("%-10s | %-9s %-10s %-10s %-8s %-9s | %-9s\n", "phase",
              "rise[ms]", "over[%]", "settle[ms]", "ss-err", "IAE",
              "wall[ms]");
  bench::print_rule(84);

  core::ServoSystem servo(bench_config());

  bench::Stopwatch w_mil;
  const auto mil = servo.run_mil();
  std::printf("%-10s | %-9.1f %-10.2f %-10.1f %-8.3f %-9.3f | %-9.1f\n",
              "MIL", mil.metrics.rise_time * 1e3,
              mil.metrics.overshoot_percent, mil.metrics.settling_time * 1e3,
              mil.metrics.steady_state_error, mil.iae, w_mil.elapsed_ms());

  bench::Stopwatch w_gen;
  auto build = servo.build_target("servo");
  std::printf("%-10s | %-51s | %-9.1f\n", "codegen",
              build.ok() ? "ok: sources + tasks + memory estimate"
                         : "FAILED",
              w_gen.elapsed_ms());

  bench::Stopwatch w_pil;
  const auto pil = servo.run_pil({.baud = 460800});
  std::printf("%-10s | %-9.1f %-10.2f %-10.1f %-8.3f %-9.3f | %-9.1f\n",
              "PIL", pil.metrics.rise_time * 1e3,
              pil.metrics.overshoot_percent, pil.metrics.settling_time * 1e3,
              pil.metrics.steady_state_error, pil.iae, w_pil.elapsed_ms());

  bench::Stopwatch w_hil;
  const auto hil = servo.run_hil();
  std::printf("%-10s | %-9.1f %-10.2f %-10.1f %-8.3f %-9.3f | %-9.1f\n",
              "HIL", hil.metrics.rise_time * 1e3,
              hil.metrics.overshoot_percent, hil.metrics.settling_time * 1e3,
              hil.metrics.steady_state_error, hil.iae, w_hil.elapsed_ms());

  std::printf("\nwhat each later phase adds:\n");
  std::printf("  PIL: comm %0.1f us/step (%0.1f%% of the period), "
              "round trip %0.1f us\n",
              pil.report.comm_time_per_step_us,
              pil.report.comm_overhead_ratio * 100.0,
              pil.report.round_trip_us().mean());
  std::printf("  HIL: controller exec %0.2f us, CPU %0.1f%%, stack %u B, "
              "memory %u B data / %u B code\n",
              hil.exec_us_mean, hil.cpu_utilisation * 100.0,
              hil.observed_stack_bytes, hil.memory.data_bytes,
              hil.memory.code_bytes);
  std::printf("  IAE agreement MIL vs PIL: %+0.1f%%, MIL vs HIL: %+0.1f%%\n\n",
              (pil.iae / mil.iae - 1.0) * 100.0,
              (hil.iae / mil.iae - 1.0) * 100.0);

  std::printf("static schedulability analysis vs observation:\n");
  const auto& cpu = mcu::find_derivative(servo.config().derivative);
  const auto analysis = rt::analyze_schedulability(
      build.app, cpu, {{"KeyUp_OnInterrupt", 0.05}});
  std::printf("%s", analysis.to_string().c_str());
  std::printf("  observed worst response in HIL: %.1f us (bound %.1f "
              "us)\n\n",
              hil.response_us_max,
              analysis.tasks.empty()
                  ? 0.0
                  : analysis.tasks[0].response_bound_s * 1e6);
}

void BM_MilPhase(benchmark::State& state) {
  for (auto _ : state) {
    core::ServoSystem servo(bench_config());
    auto result = servo.run_mil();
    benchmark::DoNotOptimize(result.iae);
  }
}
BENCHMARK(BM_MilPhase)->Unit(benchmark::kMillisecond);

void BM_CodegenPhase(benchmark::State& state) {
  for (auto _ : state) {
    core::ServoSystem servo(bench_config());
    auto build = servo.build_target("servo");
    benchmark::DoNotOptimize(build.app.memory.code_bytes);
  }
}
BENCHMARK(BM_CodegenPhase)->Unit(benchmark::kMillisecond);

void BM_PilPhase(benchmark::State& state) {
  for (auto _ : state) {
    core::ServoSystem servo(bench_config());
    auto result = servo.run_pil({.baud = 460800});
    benchmark::DoNotOptimize(result.iae);
  }
}
BENCHMARK(BM_PilPhase)->Unit(benchmark::kMillisecond);

void BM_HilPhase(benchmark::State& state) {
  for (auto _ : state) {
    core::ServoSystem servo(bench_config());
    auto result = servo.run_hil();
    benchmark::DoNotOptimize(result.iae);
  }
}
BENCHMARK(BM_HilPhase)->Unit(benchmark::kMillisecond);

}  // namespace

IECD_BENCH_MAIN(print_table)
