#include "obs/monitor.hpp"

#include <cmath>
#include <memory>
#include <utility>

#include "obs/health_report.hpp"
#include "sim/can_bus.hpp"
#include "sim/world.hpp"
#include "util/strings.hpp"

namespace iecd::obs {

// ------------------------------------------------------------ TimingMonitor

void TimingMonitor::merge(const TimingMonitor& other) {
  // The merged-in run's first activation contributes no jitter interval
  // (have_prev_ seams are per-run); histograms and counters just add.
  response_us_.merge(other.response_us_);
  exec_us_.merge(other.exec_us_);
  jitter_us_.merge(other.jitter_us_);
  activations_ += other.activations_;
  deadline_misses_ += other.deadline_misses_;
  if (other.last_miss_time_ > last_miss_time_) {
    last_miss_time_ = other.last_miss_time_;
  }
  if (config_.period_s == 0.0 && config_.deadline_s == 0.0) {
    config_ = other.config_;
  }
}

std::string TimingMonitor::state_line(const std::string& name) const {
  return util::format(
      "task %s: n=%llu resp_us[p50=%.3f p99=%.3f max=%.3f] exec_us[max=%.3f] "
      "jitter_us[max=%.3f] misses=%llu",
      name.c_str(), static_cast<unsigned long long>(activations_),
      response_us_.p50(), response_us_.p99(), response_us_.max(),
      exec_us_.max(), jitter_us_.max(),
      static_cast<unsigned long long>(deadline_misses_));
}

// --------------------------------------------------------------- MonitorHub

MonitorHub::MonitorHub() {
  flight_.set_state_provider([this](std::vector<std::string>& lines) {
    for (const auto& [name, mon] : timings_) {
      lines.push_back(mon.state_line(name));
    }
    for (const auto& [name, mon] : watermarks_) {
      lines.push_back(util::format(
          "watermark %s: current=%.3f peak=%.3f mean=%.3f n=%llu",
          name.c_str(), mon.current(), mon.peak(), mon.mean(),
          static_cast<unsigned long long>(mon.samples())));
    }
  });
}

TimingMonitor& MonitorHub::timing(const std::string& name,
                                  TimingMonitor::Config config) {
  auto it = timings_.find(name);
  if (it == timings_.end()) {
    it = timings_.emplace(name, TimingMonitor{config}).first;
  }
  return it->second;
}

WatermarkMonitor& MonitorHub::watermark(const std::string& name) {
  return watermarks_[name];
}

const TimingMonitor* MonitorHub::find_timing(const std::string& name) const {
  auto it = timings_.find(name);
  return it == timings_.end() ? nullptr : &it->second;
}

const WatermarkMonitor* MonitorHub::find_watermark(
    const std::string& name) const {
  auto it = watermarks_.find(name);
  return it == watermarks_.end() ? nullptr : &it->second;
}

void MonitorHub::add_probe(const std::string& name,
                           std::function<double(sim::SimTime)> gauge) {
  Probe probe;
  probe.name = name;
  probe.gauge = std::move(gauge);
  probe.into = &watermark(name);
  probes_.push_back(std::move(probe));
}

void MonitorHub::watch_can_bus(const sim::CanBus& bus) {
  // Utilisation since the previous poll: delta busy time over delta wall
  // time, so the watermark catches transient bus saturation that a
  // whole-run average hides.
  struct LoadState {
    sim::SimTime prev_busy = 0;
    sim::SimTime prev_time = 0;
  };
  auto state = std::make_shared<LoadState>();
  const sim::CanBus* bus_ptr = &bus;
  add_probe(bus.name() + ".load", [bus_ptr, state](sim::SimTime now) {
    const sim::SimTime busy = bus_ptr->stats().busy_time;
    const sim::SimTime busy_delta = busy - state->prev_busy;
    const sim::SimTime window = now - state->prev_time;
    state->prev_busy = busy;
    state->prev_time = now;
    return window > 0
               ? static_cast<double>(busy_delta) / static_cast<double>(window)
               : 0.0;
  });
  add_probe(bus.name() + ".pending", [bus_ptr](sim::SimTime) {
    return static_cast<double>(bus_ptr->pending());
  });
  // Error-path anomalies: integrity rejects and wire losses (the latter
  // only move under fault injection) snapshot the flight recorder.
  flight_.add_counter_trigger(bus.name() + ".crc_error", [bus_ptr]() {
    return bus_ptr->stats().crc_errors;
  });
  flight_.add_counter_trigger(bus.name() + ".frame_dropped", [bus_ptr]() {
    return bus_ptr->stats().frames_dropped;
  });
}

void MonitorHub::arm(sim::World& world, sim::SimTime poll_period) {
  // Trace-ring drops are an anomaly: post-mortem windows silently shrink.
  if (trace::TraceRecorder* rec = trace::recorder()) {
    flight_.add_counter_trigger("trace_ring_drop",
                                [rec]() { return rec->dropped(); });
  }
  sim::World* w = &world;
  world.queue().schedule_every(poll_period, [this, w]() { poll(*w); });
}

void MonitorHub::poll(sim::World& world) {
  const sim::SimTime now = world.now();
  watermark("sim.event_queue.depth")
      .update(static_cast<double>(world.queue().pending()));
  for (auto& probe : probes_) {
    probe.into->update(probe.gauge(now));
  }
  flight_.poll(now);
  ++polls_;
}

HealthReport MonitorHub::report(const std::string& source) const {
  HealthReport report;
  report.source = source;
  report.runs = 1;
  report.tasks = timings_;
  report.watermarks = watermarks_;
  report.anomalies = flight_.trigger_counts();
  report.dumps = flight_.dumps();
  report.dumps_suppressed = flight_.suppressed();
  return report;
}

}  // namespace iecd::obs
