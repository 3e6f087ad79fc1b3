// The paper's Section 7 case study, end to end: DC-motor speed control
// with PWM actuation, incremental-encoder feedback through the quadrature
// decoder, keyboard set-point/mode input, on the 16-bit DSC target.
//
// The example walks the full development cycle of Fig. 6.1:
//   1. Bean Inspector view of the PE project (Fig. 4.1)
//   2. expert-system validation
//   3. MIL simulation of the single model (Fig. 7.1/7.2)
//   4. PEERT code generation (generated C shown in codegen_tour)
//   5. PIL co-simulation over the byte-timed RS232 link (Fig. 6.2)
//   6. HIL execution against the peripheral-level plant
// and prints the control quality + target profiling at each phase.
//
// Pass a path as the first argument (e.g. `servo_case_study trace.json`)
// to run the PIL phase with the unified tracer on and export the
// cross-layer timeline as Chrome trace-event JSON for Perfetto /
// chrome://tracing.
#include <cstdio>
#include <memory>

#include "core/case_study.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

using namespace iecd;

namespace {

void print_quality(const char* phase, const model::StepMetrics& m,
                   double iae, double final_speed) {
  std::printf("  %-4s rise %6.1f ms  overshoot %5.2f %%  settle %6.1f ms  "
              "ss-err %6.3f  IAE %7.3f  final %7.2f rad/s\n",
              phase, m.rise_time * 1e3, m.overshoot_percent,
              m.settling_time * 1e3, m.steady_state_error, iae, final_speed);
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = argc > 1 ? argv[1] : nullptr;
  core::ServoConfig config;
  config.duration_s = 1.0;
  core::ServoSystem servo(config);

  std::printf("=== 1. Bean Inspector (PE project view) ===\n\n%s\n",
              servo.project().inspector_render().c_str());

  std::printf("=== 2. Expert-system validation ===\n\n");
  const auto diagnostics = servo.validate();
  std::printf("%s\n", diagnostics.to_string().c_str());
  if (diagnostics.has_errors()) return 1;

  std::printf("=== 3. Model-in-the-loop ===\n\n");
  const auto mil = servo.run_mil();
  print_quality("MIL", mil.metrics, mil.iae, mil.speed.last_value());

  std::printf("\n=== 4. PEERT code generation ===\n\n");
  auto build = servo.build_target("servo");
  if (!build.ok()) {
    std::printf("build failed:\n%s", build.diagnostics.to_string().c_str());
    return 1;
  }
  std::printf("%s\n", build.app.report().c_str());

  std::printf("=== 5. Processor-in-the-loop (RS232 @ 460800 baud) ===\n\n");
  std::unique_ptr<trace::TraceRecorder> recorder;
  std::unique_ptr<trace::TraceSession> tracing;
  if (trace_path) {
    recorder = std::make_unique<trace::TraceRecorder>(std::size_t{1} << 20);
    tracing = std::make_unique<trace::TraceSession>(*recorder);
  }
  const auto pil = servo.run_pil({.baud = 460800});
  tracing.reset();
  if (recorder) {
    if (trace::export_chrome_trace_file(*recorder, trace_path)) {
      std::printf("PIL timeline written to %s (%llu events) — open it in "
                  "https://ui.perfetto.dev\n\n",
                  trace_path,
                  static_cast<unsigned long long>(recorder->total_recorded()));
    } else {
      std::printf("cannot write trace to %s\n", trace_path);
    }
  }
  print_quality("PIL", pil.metrics, pil.iae, pil.speed.last_value());
  std::printf("\n%s\n", pil.report.to_string().c_str());

  std::printf("=== 6. Hardware-in-the-loop ===\n\n");
  const auto hil = servo.run_hil();
  print_quality("HIL", hil.metrics, hil.iae, hil.speed.last_value());
  std::printf("\n  controller exec %0.2f us mean / %0.2f us max, "
              "jitter %0.2f us peak, CPU %0.1f %%\n",
              hil.exec_us_mean, hil.exec_us_max, hil.jitter_us,
              hil.cpu_utilisation * 100.0);
  std::printf("  memory: %u B data, %u B code, stack observed %u B\n",
              hil.memory.data_bytes, hil.memory.code_bytes,
              hil.observed_stack_bytes);
  std::printf("\n  target profile:\n%s\n", hil.profile_report.c_str());

  std::printf("=== 6b. HIL with operator input (event-driven task) ===\n\n");
  core::ServoSystem::HilOptions key_options;
  key_options.key_up_presses = {sim::milliseconds(800)};
  const auto hil_key = servo.run_hil(key_options);
  std::printf("  set-point key pressed at t=0.8 s: the bouncing contact "
              "fired the edge ISR %llu times\n",
              static_cast<unsigned long long>(
                  servo.setpoint_bump().activations()));
  std::printf("  final speed %0.2f rad/s (base set-point %0.1f + keyed "
              "increments)\n\n",
              hil_key.speed.last_value(), config.setpoint);

  const bool consistent =
      mil.metrics.settled && pil.metrics.settled && hil.metrics.settled;
  std::printf("development cycle %s: all three phases %s\n",
              consistent ? "PASSED" : "FAILED",
              consistent ? "track the set-point" : "disagree");
  return consistent ? 0 : 1;
}
