#include "trace/export.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "util/json.hpp"

namespace iecd::trace {

namespace {

using util::json_escape;
using util::json_number;

/// Microseconds with nanosecond precision — deterministic formatting.
std::string ts_us(sim::SimTime t) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(t) * 1e-3);
  return buf;
}

/// Stable process id per track, in first-appearance order.
std::map<NameId, int> assign_pids(const TraceRecorder& recorder,
                                  std::vector<NameId>* order) {
  std::map<NameId, int> pids;
  recorder.for_each([&](const Event& e) {
    if (pids.emplace(e.track, 0).second) order->push_back(e.track);
  });
  int next = 1;
  for (NameId id : *order) pids[id] = next++;
  return pids;
}

}  // namespace

std::uint64_t write_chrome_trace(const TraceRecorder& recorder,
                                 std::ostream& os) {
  std::vector<NameId> track_order;
  const auto pids = assign_pids(recorder, &track_order);
  const std::uint64_t dropped = recorder.dropped();

  os << "{\"traceEvents\":[";
  bool first = true;
  if (dropped > 0) {
    // Metadata record: the viewer-visible warning that the ring overwrote
    // the oldest events, so the timeline starts mid-run.
    os << "\n{\"name\":\"trace_dropped_events\",\"ph\":\"M\",\"pid\":0,"
       << "\"tid\":0,\"args\":{\"dropped\":" << dropped
       << ",\"retained\":" << recorder.size()
       << ",\"total_recorded\":" << recorder.total_recorded() << "}}";
    first = false;
  }
  for (NameId track : track_order) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
       << pids.at(track) << ",\"tid\":0,\"args\":{\"name\":\""
       << json_escape(recorder.string_at(track)) << "\"}}";
  }
  recorder.for_each([&](const Event& e) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"cat\":\"" << json_escape(recorder.string_at(e.category))
       << "\",\"name\":\"" << json_escape(recorder.string_at(e.name))
       << "\",\"ph\":\"";
    switch (e.type) {
      case EventType::kSpanBegin: os << "B"; break;
      case EventType::kSpanEnd: os << "E"; break;
      case EventType::kSpanComplete: os << "X"; break;
      case EventType::kCounter: os << "C"; break;
      case EventType::kInstant: os << "i"; break;
    }
    os << "\",\"ts\":" << ts_us(e.time);
    if (e.type == EventType::kSpanComplete) {
      os << ",\"dur\":" << ts_us(e.duration);
    }
    os << ",\"pid\":" << pids.at(e.track) << ",\"tid\":0";
    if (e.type == EventType::kInstant) os << ",\"s\":\"p\"";
    if (e.type == EventType::kCounter) {
      os << ",\"args\":{\"value\":" << json_number(e.value) << "}";
    } else if (e.value != 0.0) {
      os << ",\"args\":{\"v\":" << json_number(e.value) << "}";
    }
    os << "}";
  });
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return dropped;
}

std::string to_chrome_trace(const TraceRecorder& recorder) {
  std::ostringstream os;
  write_chrome_trace(recorder, os);
  return os.str();
}

std::uint64_t write_csv(const TraceRecorder& recorder, std::ostream& os) {
  const std::uint64_t dropped = recorder.dropped();
  if (dropped > 0) {
    os << "# dropped " << dropped
       << " events (ring overwrote oldest; file starts mid-run)\n";
  }
  os << "seq,type,category,name,track,time_ns,dur_ns,value\n";
  recorder.for_each([&](const Event& e) {
    const char* type = "";
    switch (e.type) {
      case EventType::kSpanBegin: type = "span_begin"; break;
      case EventType::kSpanEnd: type = "span_end"; break;
      case EventType::kSpanComplete: type = "span"; break;
      case EventType::kCounter: type = "counter"; break;
      case EventType::kInstant: type = "instant"; break;
    }
    os << e.seq << ',' << type << ','
       << recorder.string_at(e.category) << ','
       << recorder.string_at(e.name) << ','
       << recorder.string_at(e.track) << ','
       << e.time << ',' << e.duration << ',' << json_number(e.value) << '\n';
  });
  return dropped;
}

std::string to_csv(const TraceRecorder& recorder) {
  std::ostringstream os;
  write_csv(recorder, os);
  return os.str();
}

bool export_chrome_trace_file(const TraceRecorder& recorder,
                              const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  write_chrome_trace(recorder, os);
  return os.good();
}

}  // namespace iecd::trace
