/// \file export.hpp
/// Trace exporters.  The Chrome trace-event JSON output loads directly in
/// Perfetto / chrome://tracing: every trace track (the world, the event
/// queue, a CAN bus, the CPU, the PIL host...) becomes one "process" row,
/// spans render as slices, counters as counter tracks and instants as
/// marks.  All formatting is deterministic — identical runs export
/// byte-identical files, which the regression tests rely on.
#pragma once

#include <ostream>
#include <string>

#include "trace/trace.hpp"

namespace iecd::trace {

/// Writes the recorder's live events as Chrome trace-event JSON
/// (`{"traceEvents":[...]}`).  Timestamps are microseconds of simulated
/// time with nanosecond precision.  Returns the number of events the ring
/// overwrote before export (0 = the file holds the complete run); when
/// events were dropped a "trace_dropped_events" metadata record carries
/// the count into the exported file itself.
std::uint64_t write_chrome_trace(const TraceRecorder& recorder,
                                 std::ostream& os);
std::string to_chrome_trace(const TraceRecorder& recorder);

/// Writes events as CSV: seq,type,category,name,track,time_ns,dur_ns,value.
/// Returns the dropped-event count (see write_chrome_trace); a non-zero
/// count additionally emits a leading `# dropped ...` comment line.
std::uint64_t write_csv(const TraceRecorder& recorder, std::ostream& os);
std::string to_csv(const TraceRecorder& recorder);

/// Convenience: exports Chrome trace JSON to \p path.  Returns false if
/// the file cannot be opened.
bool export_chrome_trace_file(const TraceRecorder& recorder,
                              const std::string& path);

}  // namespace iecd::trace
