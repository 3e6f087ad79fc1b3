// Trace tour: the observability subsystem on the DC-servo case study.
//
// Runs the PIL co-simulation with the unified tracer active, then:
//   1. prints the PIL report's MetricsRegistry — the one-source-of-truth
//      numbers,
//   2. exports the cross-layer timeline as Chrome trace-event JSON
//      (open servo_trace.json in https://ui.perfetto.dev or
//      chrome://tracing: one process row per component — event queue,
//      CPU, PIL host, CAN/model engine) and as CSV.
//
// The tracer costs one branch per instrumentation site when disabled;
// here it is enabled for the whole run, so every event-queue dispatch,
// ISR, PIL frame exchange and model step lands on one timeline.
#include <cstdio>

#include "core/case_study.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

using namespace iecd;

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "servo_trace.json";

  trace::TraceRecorder recorder(std::size_t{1} << 20);
  trace::TraceSession session(recorder);

  core::ServoConfig config;
  config.duration_s = 0.25;
  core::ServoSystem servo(config);
  const auto pil = servo.run_pil({.baud = 460800});

  std::printf("=== PIL metrics (PilReport.metrics registry) ===\n\n%s\n",
              pil.report.metrics.report().c_str());

  std::printf("=== recorder ===\n\n");
  std::printf("  events recorded   %llu (%zu live, %llu dropped by the "
              "ring)\n",
              static_cast<unsigned long long>(recorder.total_recorded()),
              recorder.size(),
              static_cast<unsigned long long>(recorder.dropped()));
  std::printf("  interned strings  %zu\n\n", recorder.interned_count());

  if (!trace::export_chrome_trace_file(recorder, json_path)) {
    std::printf("cannot write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s — load it in https://ui.perfetto.dev or "
              "chrome://tracing\n",
              json_path);

  // The CSV flavour of the same timeline, for ad-hoc analysis.
  std::printf("\nfirst trace rows (CSV export):\n");
  const std::string csv = trace::to_csv(recorder);
  std::size_t pos = 0;
  for (int line = 0; line < 8 && pos != std::string::npos; ++line) {
    const std::size_t end = csv.find('\n', pos);
    std::printf("  %s\n", csv.substr(pos, end - pos).c_str());
    pos = end == std::string::npos ? end : end + 1;
  }

  return pil.metrics.settled ? 0 : 1;
}
