/// \file latency_histogram.hpp
/// HDR-style log-bucketed histogram, the repo's one distribution type:
/// fixed memory chosen at construction, allocation-free on the record
/// path, exact min/max/count/sum, and interpolated quantiles whose relative
/// error is bounded by the sub-bucket resolution (1/32 per octave by
/// default).
///
/// The paper's PIL phase surfaces "execution times of the implemented
/// controller code, interrupts response times, sampling jitters"; this is
/// the container those quantities stream into while the run executes —
/// the obs monitors' response/exec/jitter figures, the MetricsRegistry's
/// series (PIL round trips and recoveries) and the CAN rig's loop latency —
/// so a distribution costs O(buckets), never O(samples), in memory, in
/// every evidence artifact and in every campaign checkpoint.
///
/// Bucketing: a positive value v = m * 2^e (frexp, m in [0.5, 1)) lands in
/// octave (e - min_exp), sub-bucket floor((m - 0.5) * 2 * S).  Bucket
/// widths therefore grow geometrically while each octave is split into S
/// linear sub-buckets — the classic HDR layout.  Zero and values below the
/// tracked range land in the dedicated underflow bucket; values above it
/// saturate into the last bucket.  Exact min/max are tracked separately, so
/// quantile answers are always clamped into the true observed range.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

namespace iecd::util {

class LatencyHistogram {
 public:
  struct Config {
    /// log2 of the sub-buckets per octave; 5 -> 32 sub-buckets -> worst
    /// relative quantile error ~3.1%.
    int sub_bucket_bits = 5;
    /// Smallest tracked binary exponent: 2^min_exp is the resolution
    /// floor.  -20 ~ 1e-6 (sub-microsecond when recording microseconds).
    int min_exp = -20;
    /// Largest tracked exponent: values >= 2^max_exp saturate.  40 ~ 1e12.
    int max_exp = 40;

    bool operator==(const Config&) const = default;
  };

  LatencyHistogram();
  explicit LatencyHistogram(Config config);

  /// Records one sample.  Allocation-free: bucket arithmetic plus a
  /// handful of scalar updates.  Negative values are clamped to 0 (they
  /// count in the underflow bucket but still update the exact min).
  /// Inline and branch-light — this sits on the dispatch-retirement hot
  /// path of every monitored task (the E9 overhead bench bounds its cost).
  void record(double value) {
    ++counts_[bucket_index(value)];
    if (count_ == 0) {
      min_ = value;
      max_ = value;
    } else {
      if (value < min_) min_ = value;
      if (value > max_) max_ = value;
    }
    sum_ += value;
    ++count_;
  }

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Interpolated quantile, p in [0, 100] (clamped), with the linear rank
  /// convention r = p/100 * (n-1) of an exact sorted-sample percentile:
  /// the bucket containing the rank is located by a cumulative walk and
  /// the answer interpolated linearly inside it, then clamped to the exact
  /// [min, max].  A fractional rank whose two neighbouring samples sit in
  /// different buckets interpolates between their two estimates, as the
  /// exact percentile does between the two samples.  p = 0 is the minimum
  /// and p = 100 the maximum; an empty histogram yields 0 and a NaN p
  /// yields NaN.
  double percentile(double p) const;

  double p50() const { return percentile(50.0); }
  double p90() const { return percentile(90.0); }
  double p99() const { return percentile(99.0); }
  double p999() const { return percentile(99.9); }

  /// Bin-wise merge; both histograms must share a Config (returns false
  /// and leaves this untouched otherwise).  Merging is associative and
  /// commutative up to floating-point addition order of sum_, so an
  /// index-order fold over sweep runs is deterministic.
  bool merge(const LatencyHistogram& other);

  const Config& config() const { return config_; }
  std::size_t bucket_count() const { return counts_.size(); }

  /// Raw-state equality: config, every bucket, count, sum, min and max.
  bool operator==(const LatencyHistogram&) const = default;

  /// Raw bucket counts (the evidence codec serializes their non-empty
  /// range; together with count()/sum()/min()/max() they are the
  /// histogram's full state).
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

  /// Rebuilds a default-Config histogram from raw state previously read
  /// off bucket_counts()/count()/sum()/min()/max(): \p counts fills the
  /// buckets from \p first on, every other bucket is empty.  Evidence
  /// records and checkpoints are untrusted input, so a state no histogram
  /// can have yields nullopt: a range past bucket_count(), counts that do
  /// not sum to \p count, or min > max.  Every state record() can leave
  /// is accepted, so a non-finite sum (an inf or NaN sample) and a NaN
  /// min/max read back as written.
  static std::optional<LatencyHistogram> from_raw(
      std::size_t first, std::span<const std::uint64_t> counts,
      std::uint64_t count, double sum, double min, double max);

  /// Upper bound of the worst-case relative quantile error: one sub-bucket
  /// width relative to its octave base.
  double relative_error_bound() const {
    return 1.0 / static_cast<double>(std::size_t{1} << config_.sub_bucket_bits);
  }

 private:
  /// Bucket selection by IEEE-754 bit extraction — identical result to the
  /// frexp formulation (v = m * 2^e, m in [0.5, 1): octave e - 1 - min_exp,
  /// sub-bucket floor((m - 0.5) * 2 * S)) but without the libm call: for a
  /// normal double, e == biased_exponent - 1022 and (m - 0.5) * 2 * S is
  /// exactly mantissa >> (52 - sub_bucket_bits).
  std::size_t bucket_index(double value) const {
    if (!(value > 0.0)) return 0;  // zero, negative, NaN -> underflow bucket
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    const int biased = static_cast<int>(bits >> 52);  // sign known positive
    if (biased == 0) return 0;  // subnormal: below any sane min_exp
    const int e = biased - 1022;
    if (e <= config_.min_exp) return 0;
    if (e > config_.max_exp) return counts_.size() - 1;  // saturate (and inf)
    const std::size_t sub = std::size_t{1} << config_.sub_bucket_bits;
    const auto octave = static_cast<std::size_t>(e - 1 - config_.min_exp);
    const std::size_t s = (bits & ((std::uint64_t{1} << 52) - 1)) >>
                          (52 - config_.sub_bucket_bits);
    return 1 + octave * sub + s;
  }
  /// Inclusive lower / exclusive upper value bound of bucket \p i.
  double bucket_lo(std::size_t i) const;
  double bucket_hi(std::size_t i) const;

  Config config_;
  std::vector<std::uint64_t> counts_;  ///< [underflow, octaves * sub-buckets]
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// The histogram as a JSON object — {"n", "min", "mean", "p50", "p90",
/// "p99", "p999", "max"}, numbers in util::json_number's format — the one
/// rendering the health and campaign reports share.
void json_histogram(std::ostream& os, const LatencyHistogram& h);

}  // namespace iecd::util
