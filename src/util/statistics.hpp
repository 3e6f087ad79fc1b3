/// \file statistics.hpp
/// Streaming moments used by the PIL report, the campaigns and every
/// benchmark: running mean/stddev (Welford) and min/max.  Distributions
/// with percentiles live in util::LatencyHistogram.
#pragma once

#include <cstddef>
#include <limits>

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

}  // namespace iecd::util
