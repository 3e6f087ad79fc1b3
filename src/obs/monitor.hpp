/// \file monitor.hpp
/// Online timing monitors.  A TimingMonitor tracks one task's (or one
/// protocol sequence's) response time, execution time, activation jitter
/// and deadline misses as the run executes — the per-task view the paper's
/// PIL phase promises, computed online from fixed-memory histograms instead
/// of post-hoc from retained sample vectors.  MonitorHub is the per-run
/// registry that owns the monitors, the watermark probes and the flight
/// recorder, arms the periodic poll on a simulation world, and renders
/// everything into a HealthReport.
#pragma once

#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/watermark.hpp"
#include "sim/time.hpp"
#include "util/latency_histogram.hpp"

namespace iecd::sim {
class World;
class CanBus;
}  // namespace iecd::sim

namespace iecd::obs {

class TimingMonitor {
 public:
  struct Config {
    double period_s = 0.0;    ///< nominal activation period (0 = aperiodic)
    double deadline_s = 0.0;  ///< relative deadline (0 = none monitored)
  };

  TimingMonitor() = default;
  explicit TimingMonitor(Config config) : config_(config) {}

  /// Records one activation: released (raised) at \p release, began
  /// service at \p start, completed at \p end.  Response time is
  /// completion - release (the schedulability-analysis convention), so a
  /// non-preemptive task blocked behind another accrues its wait here.
  /// Returns true when this activation missed its deadline — response
  /// STRICTLY greater than the deadline; response == deadline is met
  /// exactly (the boundary test locks this).  Allocation-free and inline:
  /// this runs at every dispatch retirement (E9 bounds the cost).
  bool record(sim::SimTime release, sim::SimTime start, sim::SimTime end) {
    exec_us_.record(sim::to_microseconds(end - start));
    const bool missed =
        record_response_us(sim::to_microseconds(end - release), start);
    if (missed) last_miss_time_ = end;  // exact completion time
    return missed;
  }

  /// Direct-value form for quantities that arrive as a latency sample
  /// (e.g. PIL per-sequence round trip): \p response_us against the
  /// deadline, \p start for jitter tracking.
  bool record_response_us(double response_us, sim::SimTime start) {
    response_us_.record(response_us);
    if (have_prev_ && config_.period_s > 0.0) {
      const double interval_us = sim::to_microseconds(start - prev_start_);
      jitter_us_.record(std::fabs(interval_us - config_.period_s * 1e6));
    }
    prev_start_ = start;
    have_prev_ = true;
    ++activations_;

    bool missed = false;
    if (config_.deadline_s > 0.0) {
      // Strictly greater: response == deadline is met exactly.
      missed = response_us > config_.deadline_s * 1e6;
      if (missed) {
        ++deadline_misses_;
        last_miss_time_ = start + sim::from_seconds(response_us * 1e-6);
      }
    }
    return missed;
  }

  const Config& config() const { return config_; }
  const util::LatencyHistogram& response_us() const { return response_us_; }
  const util::LatencyHistogram& exec_us() const { return exec_us_; }
  /// |inter-activation interval - nominal period| in us (empty when the
  /// monitor is aperiodic).
  const util::LatencyHistogram& jitter_us() const { return jitter_us_; }

  std::uint64_t activations() const { return activations_; }
  std::uint64_t deadline_misses() const { return deadline_misses_; }
  double worst_response_us() const { return response_us_.max(); }
  /// Completion time of the most recent deadline miss (0 if none).
  sim::SimTime last_miss_time() const { return last_miss_time_; }

  /// Deterministic fold for sweep aggregation: histograms merge bin-wise,
  /// counters add.  The inter-run jitter seam is NOT stitched (the first
  /// activation of the merged-in run contributes no interval), matching a
  /// sequential re-feed of run boundaries.
  void merge(const TimingMonitor& other);

  /// One-line state snapshot (flight-recorder dumps, reports).
  std::string state_line(const std::string& name) const;

  /// Full serializable state — what a campaign checkpoint needs to rebuild
  /// the monitor exactly (the jitter seam fields included, so a resumed
  /// fold is bit-identical to an uninterrupted one).
  struct RawState {
    Config config;
    util::LatencyHistogram response_us;
    util::LatencyHistogram exec_us;
    util::LatencyHistogram jitter_us;
    std::uint64_t activations = 0;
    std::uint64_t deadline_misses = 0;
    sim::SimTime last_miss_time = 0;
    sim::SimTime prev_start = 0;
    bool have_prev = false;
  };

  RawState raw() const {
    return RawState{config_,           response_us_,      exec_us_,
                    jitter_us_,        activations_,      deadline_misses_,
                    last_miss_time_,   prev_start_,       have_prev_};
  }

  static TimingMonitor from_raw(RawState state) {
    TimingMonitor m(state.config);
    m.response_us_ = std::move(state.response_us);
    m.exec_us_ = std::move(state.exec_us);
    m.jitter_us_ = std::move(state.jitter_us);
    m.activations_ = state.activations;
    m.deadline_misses_ = state.deadline_misses;
    m.last_miss_time_ = state.last_miss_time;
    m.prev_start_ = state.prev_start;
    m.have_prev_ = state.have_prev;
    return m;
  }

 private:
  Config config_;
  util::LatencyHistogram response_us_;
  util::LatencyHistogram exec_us_;
  util::LatencyHistogram jitter_us_;
  std::uint64_t activations_ = 0;
  std::uint64_t deadline_misses_ = 0;
  sim::SimTime last_miss_time_ = 0;
  sim::SimTime prev_start_ = 0;
  bool have_prev_ = false;
};

struct HealthReport;

/// Per-run observability hub: owns the timing monitors, watermark
/// monitors, gauge probes and the flight recorder; one `arm()` call per
/// world schedules the recurring poll that samples the probes (event-queue
/// depth first among them) and evaluates the flight-recorder predicates.
class MonitorHub {
 public:
  MonitorHub();
  MonitorHub(const MonitorHub&) = delete;
  MonitorHub& operator=(const MonitorHub&) = delete;

  /// Get-or-create.  \p config applies on first creation only.
  TimingMonitor& timing(const std::string& name,
                        TimingMonitor::Config config = {});
  WatermarkMonitor& watermark(const std::string& name);

  const TimingMonitor* find_timing(const std::string& name) const;
  const WatermarkMonitor* find_watermark(const std::string& name) const;
  const std::map<std::string, TimingMonitor>& timings() const {
    return timings_;
  }
  const std::map<std::string, WatermarkMonitor>& watermarks() const {
    return watermarks_;
  }

  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }

  /// Registers a gauge sampled into watermark(\p name) at every poll; the
  /// gauge receives the poll's simulated time (rate-style probes need it to
  /// normalise deltas).
  void add_probe(const std::string& name,
                 std::function<double(sim::SimTime)> gauge);

  /// Convenience probes for a CAN bus: utilisation since the previous
  /// poll ("<name>.load") and frames pending on the nodes
  /// ("<name>.pending").
  void watch_can_bus(const sim::CanBus& bus);

  /// Schedules the recurring poll on \p world every \p poll_period:
  /// samples "sim.event_queue.depth" plus all registered probes, then
  /// evaluates the flight recorder's polled triggers.  Also registers the
  /// trace-ring drop counter trigger against the active trace recorder
  /// (if any).  Call once per world/run.
  void arm(sim::World& world, sim::SimTime poll_period);

  /// Number of polls executed since arm().
  std::uint64_t polls() const { return polls_; }

  /// Renders the hub into a mergeable HealthReport snapshot.
  HealthReport report(const std::string& source) const;

 private:
  void poll(sim::World& world);

  struct Probe {
    std::string name;
    std::function<double(sim::SimTime)> gauge;
    WatermarkMonitor* into = nullptr;
  };

  std::map<std::string, TimingMonitor> timings_;
  std::map<std::string, WatermarkMonitor> watermarks_;
  std::vector<Probe> probes_;
  FlightRecorder flight_;
  std::uint64_t polls_ = 0;
};

}  // namespace iecd::obs
