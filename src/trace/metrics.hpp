/// \file metrics.hpp
/// MetricsRegistry: one named home for the counters, gauges, running stats
/// and series that `pil::PilReport`, the campaigns and the benches record.
/// A series is a util::LatencyHistogram (default Config), so it costs
/// O(buckets) however many samples it folds, and merging registries adds
/// buckets.  Per-dispatch timing lives in obs::TimingMonitor instead.
/// Storage is `std::map`-backed so references handed out stay stable and
/// every rendering (text report, CSV) iterates in deterministic name order.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "util/latency_histogram.hpp"
#include "util/statistics.hpp"

namespace iecd::trace {

class MetricsRegistry {
 public:
  /// Monotonic event count.
  struct Counter {
    std::uint64_t value = 0;
    void increment(std::uint64_t by = 1) { value += by; }
  };

  // ------------------------------------------------- get-or-create handles
  // References remain valid for the registry's lifetime (node-based maps).
  Counter& counter(const std::string& name);
  double& gauge(const std::string& name);
  util::RunningStats& stats(const std::string& name);
  util::LatencyHistogram& series(const std::string& name);

  // ------------------------------------------------------- const lookups
  const Counter* find_counter(const std::string& name) const;
  const double* find_gauge(const std::string& name) const;
  const util::RunningStats* find_stats(const std::string& name) const;
  const util::LatencyHistogram* find_series(const std::string& name) const;

  bool empty() const;
  void clear();

  /// Folds another registry in (parallel or phase-wise collection).
  /// Counters add, gauges overwrite, stats merge, series add buckets.
  void merge(const MetricsRegistry& other);

  /// Deterministic human-readable report, one line per metric, sorted.
  std::string report() const;

  /// Deterministic CSV: metric,kind,count,value,mean,stddev,min,max,p50,p99
  /// (a series row leaves stddev empty: a histogram keeps no second moment).
  void write_csv(std::ostream& os) const;
  std::string to_csv() const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, util::RunningStats>& all_stats() const {
    return stats_;
  }
  const std::map<std::string, util::LatencyHistogram>& all_series() const {
    return series_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, util::RunningStats> stats_;
  std::map<std::string, util::LatencyHistogram> series_;
};

}  // namespace iecd::trace
