#include "obs/flight_recorder.hpp"

#include <utility>

namespace iecd::obs {

void FlightRecorder::trigger(const std::string& name, sim::SimTime time,
                             const std::string& detail) {
  capture(name, time, detail);
}

void FlightRecorder::add_counter_trigger(
    const std::string& name, std::function<std::uint64_t()> counter) {
  Polled p;
  p.name = name;
  p.counter = std::move(counter);
  // Latch the current value: pre-existing counts are not anomalies of this
  // run's window.
  p.last = p.counter ? p.counter() : 0;
  polled_.push_back(std::move(p));
}

void FlightRecorder::poll(sim::SimTime now) {
  for (auto& p : polled_) {
    if (!p.counter) continue;
    const std::uint64_t value = p.counter();
    if (value > p.last) {
      capture(p.name, now, '+' + std::to_string(value - p.last));
      p.last = value;
    }
  }
}

void FlightRecorder::set_state_provider(
    std::function<void(std::vector<std::string>&)> provider) {
  state_provider_ = std::move(provider);
}

void FlightRecorder::capture(const std::string& name, sim::SimTime time,
                             const std::string& detail) {
  ++trigger_counts_[name];
  ++triggers_total_;
  if (dumps_.size() >= kMaxDumps) {
    ++suppressed_;
    return;
  }

  Dump dump;
  dump.trigger = name;
  dump.detail = detail;
  dump.time = time;
  dump.ordinal = triggers_total_;

  // Trailing window of the active trace ring, names resolved to strings so
  // the dump survives the recorder (and its interning table) being cleared.
  if (const trace::TraceRecorder* rec = trace::recorder()) {
    const std::size_t live = rec->size();
    const std::size_t skip = live > kTrailDepth ? live - kTrailDepth : 0;
    dump.events.reserve(live - skip);
    std::size_t i = 0;
    rec->for_each([&](const trace::Event& ev) {
      if (i++ < skip) return;
      DumpEvent de;
      de.type = ev.type;
      de.category = rec->string_at(ev.category);
      de.name = rec->string_at(ev.name);
      de.track = rec->string_at(ev.track);
      de.time = ev.time;
      de.duration = ev.duration;
      de.seq = ev.seq;
      de.value = ev.value;
      dump.events.push_back(std::move(de));
    });
  }

  if (state_provider_) state_provider_(dump.monitor_state);
  dumps_.push_back(std::move(dump));
}

}  // namespace iecd::obs
