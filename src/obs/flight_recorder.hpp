/// \file flight_recorder.hpp
/// Post-mortem capture for anomalies that would otherwise vanish unless a
/// human replays a Chrome trace: deadline misses, frame-decoder
/// resynchronizations, FIFO overruns, trace-ring drops.  Components (or
/// polled monotonic counters) trigger the recorder; each trigger snapshots
/// the trailing kTrailDepth (32) events of the active trace::TraceRecorder
/// — with names resolved to strings, so the dump outlives the recorder —
/// plus a state line per registered monitor.  The first kMaxDumps (8)
/// dumps are kept; later triggers are still counted per trigger name.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace iecd::obs {

class FlightRecorder {
 public:
  /// Trace events captured per dump.
  static constexpr std::size_t kTrailDepth = 32;
  /// Dumps kept; later triggers are only counted.
  static constexpr std::size_t kMaxDumps = 8;

  /// One trailing trace event, resolved to strings at capture time.
  struct DumpEvent {
    trace::EventType type = trace::EventType::kInstant;
    std::string category;
    std::string name;
    std::string track;
    sim::SimTime time = 0;
    sim::SimTime duration = 0;
    std::uint64_t seq = 0;
    double value = 0.0;
  };

  /// One post-mortem record.
  struct Dump {
    std::string trigger;  ///< anomaly name ("deadline_miss", ...)
    std::string detail;   ///< offender (task name, channel, ...)
    sim::SimTime time = 0;
    std::uint64_t ordinal = 0;  ///< trigger ordinal across the whole run
    std::vector<DumpEvent> events;         ///< trailing events, oldest first
    std::vector<std::string> monitor_state;  ///< one line per monitor
  };

  /// Push-style trigger: an instrumentation site reports the anomaly the
  /// moment it happens (tightest possible trailing-event window).
  void trigger(const std::string& name, sim::SimTime time,
               const std::string& detail = {});

  /// Polled monotonic counter: triggers whenever the counter increased
  /// since the previous poll (detail carries the increment), e.g. UART
  /// overruns, decoder CRC resyncs, trace-ring drops.
  void add_counter_trigger(const std::string& name,
                           std::function<std::uint64_t()> counter);

  /// Evaluates all counter triggers, in registration order.
  void poll(sim::SimTime now);

  /// Snapshot provider for monitor states (set by MonitorHub): fills one
  /// line per monitor into the vector it is handed.
  void set_state_provider(
      std::function<void(std::vector<std::string>&)> provider);

  const std::vector<Dump>& dumps() const { return dumps_; }
  /// Triggers observed per anomaly name (including ones past kMaxDumps).
  const std::map<std::string, std::uint64_t>& trigger_counts() const {
    return trigger_counts_;
  }
  std::uint64_t triggers_total() const { return triggers_total_; }
  std::uint64_t suppressed() const { return suppressed_; }

 private:
  void capture(const std::string& name, sim::SimTime time,
               const std::string& detail);

  struct Polled {
    std::string name;
    std::function<std::uint64_t()> counter;
    std::uint64_t last = 0;
  };

  std::vector<Polled> polled_;
  std::vector<Dump> dumps_;
  std::map<std::string, std::uint64_t> trigger_counts_;
  std::uint64_t triggers_total_ = 0;
  std::uint64_t suppressed_ = 0;
  std::function<void(std::vector<std::string>&)> state_provider_;
};

}  // namespace iecd::obs
