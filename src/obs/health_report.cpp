#include "obs/health_report.hpp"

#include <fstream>
#include <sstream>

#include "util/build_info.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace iecd::obs {

namespace {

using util::json_escape;
using util::json_number;

}  // namespace

std::uint64_t HealthReport::anomaly_count() const {
  std::uint64_t total = 0;
  for (const auto& [name, count] : anomalies) total += count;
  return total;
}

std::uint64_t HealthReport::deadline_misses() const {
  std::uint64_t total = 0;
  for (const auto& [name, mon] : tasks) total += mon.deadline_misses();
  return total;
}

void HealthReport::merge(const HealthReport& other) {
  if (source.empty()) source = other.source;
  runs += other.runs;
  for (const auto& [name, mon] : other.tasks) {
    tasks[name].merge(mon);
  }
  for (const auto& [name, mon] : other.watermarks) {
    watermarks[name].merge(mon);
  }
  for (const auto& [name, count] : other.anomalies) {
    anomalies[name] += count;
  }
  dumps_suppressed += other.dumps_suppressed;
  for (const auto& dump : other.dumps) {
    if (dumps.size() < kMaxDumps) {
      dumps.push_back(dump);
    } else {
      ++dumps_suppressed;
    }
  }
}

std::string HealthReport::to_text() const {
  std::ostringstream os;
  os << "=== health report: " << source << " (" << runs
     << (runs == 1 ? " run" : " runs") << ") — "
     << (healthy() ? "HEALTHY" : "UNHEALTHY") << " ===\n";
  if (!tasks.empty()) {
    os << "tasks:\n";
    for (const auto& [name, mon] : tasks) {
      os << "  " << mon.state_line(name) << "\n";
    }
  }
  if (!watermarks.empty()) {
    os << "watermarks:\n";
    for (const auto& [name, mon] : watermarks) {
      os << "  " << util::format(
                        "%s: current=%.3f peak=%.3f low=%.3f mean=%.3f n=%llu",
                        name.c_str(), mon.current(), mon.peak(), mon.low(),
                        mon.mean(),
                        static_cast<unsigned long long>(mon.samples()))
         << "\n";
    }
  }
  if (!anomalies.empty()) {
    os << "anomalies:\n";
    for (const auto& [name, count] : anomalies) {
      os << "  " << name << ": " << count << "\n";
    }
  }
  for (const auto& dump : dumps) {
    os << util::format("dump #%llu: %s (%s) at t=%.6fs, %zu trailing events\n",
                       static_cast<unsigned long long>(dump.ordinal),
                       dump.trigger.c_str(), dump.detail.c_str(),
                       sim::to_seconds(dump.time), dump.events.size());
    for (const auto& line : dump.monitor_state) {
      os << "    " << line << "\n";
    }
  }
  if (dumps_suppressed > 0) {
    os << "(" << dumps_suppressed << " further dumps suppressed)\n";
  }
  return os.str();
}

std::string HealthReport::to_json() const {
  std::ostringstream os;
  os << "{\"source\":\"" << json_escape(source) << "\",\"runs\":" << runs
     << ",\"build\":" << util::build_info_json()
     << ",\"healthy\":" << (healthy() ? "true" : "false")
     << ",\"deadline_misses\":" << deadline_misses();

  os << ",\"tasks\":{";
  bool first = true;
  for (const auto& [name, mon] : tasks) {
    if (!first) os << ",";
    first = false;
    os << "\n\"" << json_escape(name) << "\":{"
       << "\"activations\":" << mon.activations()
       << ",\"deadline_misses\":" << mon.deadline_misses()
       << ",\"period_s\":" << json_number(mon.config().period_s)
       << ",\"deadline_s\":" << json_number(mon.config().deadline_s) << ",";
    os << "\"response_us\":";
    util::json_histogram(os, mon.response_us());
    os << ",\"exec_us\":";
    util::json_histogram(os, mon.exec_us());
    os << ",\"jitter_us\":";
    util::json_histogram(os, mon.jitter_us());
    os << "}";
  }
  os << "}";

  os << ",\"watermarks\":{";
  first = true;
  for (const auto& [name, mon] : watermarks) {
    if (!first) os << ",";
    first = false;
    os << "\n\"" << json_escape(name) << "\":{\"current\":"
       << json_number(mon.current()) << ",\"peak\":" << json_number(mon.peak())
       << ",\"low\":" << json_number(mon.low()) << ",\"mean\":" << json_number(mon.mean())
       << ",\"samples\":" << mon.samples() << "}";
  }
  os << "}";

  os << ",\"anomalies\":{";
  first = true;
  for (const auto& [name, count] : anomalies) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << count;
  }
  os << "}";

  os << ",\"dumps\":[";
  first = true;
  for (const auto& dump : dumps) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"trigger\":\"" << json_escape(dump.trigger) << "\",\"detail\":\""
       << json_escape(dump.detail) << "\",\"time_s\":"
       << json_number(sim::to_seconds(dump.time)) << ",\"ordinal\":" << dump.ordinal
       << ",\"events\":[";
    bool first_ev = true;
    for (const auto& ev : dump.events) {
      if (!first_ev) os << ",";
      first_ev = false;
      os << "{\"seq\":" << ev.seq << ",\"cat\":\"" << json_escape(ev.category)
         << "\",\"name\":\"" << json_escape(ev.name) << "\",\"track\":\""
         << json_escape(ev.track) << "\",\"time_ns\":" << ev.time
         << ",\"dur_ns\":" << ev.duration << ",\"value\":" << json_number(ev.value)
         << "}";
    }
    os << "],\"monitor_state\":[";
    bool first_line = true;
    for (const auto& line : dump.monitor_state) {
      if (!first_line) os << ",";
      first_line = false;
      os << "\"" << json_escape(line) << "\"";
    }
    os << "]}";
  }
  os << "]";
  os << ",\"dumps_suppressed\":" << dumps_suppressed;
  os << "}\n";
  return os.str();
}

bool HealthReport::write_json(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  os << to_json();
  return os.good();
}

}  // namespace iecd::obs
