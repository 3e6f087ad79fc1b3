/// \file latency_histogram.hpp
/// HDR-style log-bucketed histogram, the repo's one distribution type:
/// one fixed layout of 1,921 buckets, allocation-free on the record path,
/// exact min/max/count/sum, and interpolated quantiles whose relative
/// error is bounded by the sub-bucket resolution (1/32 per octave).
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
/// octave (e - kMinExp), sub-bucket floor((m - 0.5) * 2 * S) with S = 32.
/// Bucket widths therefore grow geometrically while each octave is split
/// into S linear sub-buckets — the classic HDR layout.  Zero and values below the
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
  /// log2 of the sub-buckets per octave: 32 sub-buckets, so the worst
  /// relative quantile error is ~3.1%.
  static constexpr int kSubBucketBits = 5;
  /// Smallest tracked binary exponent: 2^kMinExp ~ 1e-6 is the resolution
  /// floor (sub-microsecond when recording microseconds).
  static constexpr int kMinExp = -20;
  /// Largest tracked exponent: values >= 2^kMaxExp ~ 1e12 saturate.
  static constexpr int kMaxExp = 40;
  /// The underflow bucket plus 32 sub-buckets per octave: 1,921.
  static constexpr std::size_t kBucketCount =
      1 + (static_cast<std::size_t>(kMaxExp - kMinExp) << kSubBucketBits);
  /// Upper bound of the worst-case relative quantile error: one sub-bucket
  /// width relative to its octave base.
  static constexpr double kRelativeErrorBound = 1.0 / (1 << kSubBucketBits);

  LatencyHistogram() : counts_(kBucketCount, 0) {}

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

  /// Bin-wise merge.  Merging is associative and commutative up to
  /// floating-point addition order of sum_, so an index-order fold over
  /// sweep runs is deterministic.  A NaN min or max on either side stays
  /// NaN in the result, as a NaN first sample leaves it under record().
  void merge(const LatencyHistogram& other);

  /// Raw-state equality: every bucket, count, sum, min and max.
  bool operator==(const LatencyHistogram&) const = default;

  /// Raw bucket counts (the evidence codec serializes their non-empty
  /// range; together with count()/sum()/min()/max() they are the
  /// histogram's full state).
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

  /// Rebuilds a histogram from raw state previously read off
  /// bucket_counts()/count()/sum()/min()/max(): \p counts fills the
  /// buckets from \p first on, every other bucket is empty.  Evidence
  /// records and checkpoints are untrusted input, so a state no histogram
  /// can have yields nullopt: a range past kBucketCount, counts that do
  /// not sum to \p count, min > max, a non-NaN min or max whose own
  /// bucket is empty, or a non-empty bucket above the underflow bucket
  /// outside [bucket(min), bucket(max)].  Every state record() and merge()
  /// can leave is accepted, so a non-finite sum (an inf or NaN sample), a
  /// NaN min/max and NaN samples in the underflow bucket read back as
  /// written.
  static std::optional<LatencyHistogram> from_raw(
      std::size_t first, std::span<const std::uint64_t> counts,
      std::uint64_t count, double sum, double min, double max);

 private:
  /// Bucket selection by IEEE-754 bit extraction — identical result to the
  /// frexp formulation (v = m * 2^e, m in [0.5, 1): octave e - 1 - kMinExp,
  /// sub-bucket floor((m - 0.5) * 2 * S)) but without the libm call: for a
  /// normal double, e == biased_exponent - 1022 and (m - 0.5) * 2 * S is
  /// exactly mantissa >> (52 - kSubBucketBits).
  static std::size_t bucket_index(double value) {
    if (!(value > 0.0)) return 0;  // zero, negative, NaN -> underflow bucket
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    const int biased = static_cast<int>(bits >> 52);  // sign known positive
    if (biased == 0) return 0;  // subnormal: below kMinExp
    const int e = biased - 1022;
    if (e <= kMinExp) return 0;
    if (e > kMaxExp) return kBucketCount - 1;  // saturate (and inf)
    const auto octave = static_cast<std::size_t>(e - 1 - kMinExp);
    const std::size_t s =
        (bits & ((std::uint64_t{1} << 52) - 1)) >> (52 - kSubBucketBits);
    return 1 + (octave << kSubBucketBits) + s;
  }
  /// Inclusive lower / exclusive upper value bound of bucket \p i.
  static double bucket_lo(std::size_t i);
  static double bucket_hi(std::size_t i);

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
