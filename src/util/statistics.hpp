/// \file statistics.hpp
/// Streaming and batch statistics used by the PIL report, the campaigns and
/// every benchmark: running mean/stddev (Welford), min/max and percentiles.
/// Online latency histograms live in obs::LatencyHistogram.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace iecd::util {

/// Numerically stable streaming statistics (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }
  /// Raw second central moment (sum of squared deviations); together with
  /// count/mean/sum/min/max it reconstructs the accumulator exactly —
  /// the evidence artifact round-trips stats through these.
  double m2() const { return m2_; }

  /// Rebuilds an accumulator from its raw state (see m2()).  A zero
  /// count yields a fresh accumulator regardless of the other fields.
  static RunningStats from_raw(std::size_t count, double mean, double m2,
                               double sum, double min, double max);

  /// Merges another accumulator (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Batch sample container with percentile queries.  Keeps all samples;
/// intended for per-run profiling where sample counts are modest (<1e7).
class SampleSeries {
 public:
  void add(double x) { samples_.push_back(x); }
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;

  /// Linear-interpolated percentile; p is clamped to [0, 100], so p=0 is
  /// the minimum and p=100 the maximum.  An empty series yields 0.0 (the
  /// same convention as mean()/min()/max()); a NaN p yields NaN.
  double percentile(double p) const;

  /// Max |x - mean|; a simple jitter figure for periodic activations.
  double peak_deviation() const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;

  const std::vector<double>& sorted() const;
};

}  // namespace iecd::util
