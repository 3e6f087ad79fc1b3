#include "util/latency_histogram.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/json.hpp"

namespace iecd::util {

namespace {
constexpr std::size_t kSub = std::size_t{1} << LatencyHistogram::kSubBucketBits;
}  // namespace

// Octave o of bucket 1 + o*S + s holds values whose frexp exponent is
// kMinExp + o + 1, i.e. v in [2^(kMinExp+o), 2^(kMinExp+o+1)); sub-bucket s
// spans [base * (1 + s/S), base * (1 + (s+1)/S)) with base = 2^(kMinExp+o).
double LatencyHistogram::bucket_lo(std::size_t i) {
  if (i == 0) return 0.0;
  const std::size_t octave = (i - 1) >> kSubBucketBits;
  const std::size_t s = (i - 1) & (kSub - 1);
  return std::ldexp(1.0 + static_cast<double>(s) / static_cast<double>(kSub),
                    kMinExp + static_cast<int>(octave));
}

double LatencyHistogram::bucket_hi(std::size_t i) {
  if (i == 0) return std::ldexp(1.0, kMinExp);
  const std::size_t octave = (i - 1) >> kSubBucketBits;
  const std::size_t s = (i - 1) & (kSub - 1);
  return std::ldexp(
      1.0 + static_cast<double>(s + 1) / static_cast<double>(kSub),
      kMinExp + static_cast<int>(octave));
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (std::isnan(p)) return p;
  p = std::clamp(p, 0.0, 100.0);
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  // Linear rank convention of an exact sorted-sample percentile.
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  // Estimate of the sample at a rank inside bucket i, whose samples hold
  // ranks [first, first + in_bucket - 1]: the rank's position across the
  // bucket's value span, clamped to the exact [min, max].
  const auto estimate = [this](std::size_t i, double first, double r) {
    const std::uint64_t in_bucket = counts_[i];
    const double lo = bucket_lo(i);
    const double hi = bucket_hi(i);
    const double frac =
        in_bucket > 1 ? (r - first) / static_cast<double>(in_bucket - 1) : 0.5;
    return std::clamp(lo + (hi - lo) * frac, min_, max_);
  };
  std::uint64_t cumulative = 0;
  std::size_t previous = 0;  // last non-empty bucket before i
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t in_bucket = counts_[i];
    if (in_bucket == 0) continue;
    const double first = static_cast<double>(cumulative);
    const double last = static_cast<double>(cumulative + in_bucket - 1);
    if (rank <= last) {
      if (rank >= first) return estimate(i, first, rank);
      // The rank falls between the previous bucket's last sample and this
      // bucket's first: interpolate between their two estimates.
      const double below = estimate(
          previous, first - static_cast<double>(counts_[previous]), first - 1.0);
      const double above = estimate(i, first, first);
      return below + (above - below) * (rank - (first - 1.0));
    }
    cumulative += in_bucket;
    previous = i;
  }
  return max_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    counts_[i] += other.counts_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      // std::min/max keep a NaN of this side; take one of the other's.
      min_ = std::isnan(other.min_) ? other.min_ : std::min(min_, other.min_);
      max_ = std::isnan(other.max_) ? other.max_ : std::max(max_, other.max_);
    }
  }
  sum_ += other.sum_;
  count_ += other.count_;
}

std::optional<LatencyHistogram> LatencyHistogram::from_raw(
    std::size_t first, std::span<const std::uint64_t> counts,
    std::uint64_t count, double sum, double min, double max) {
  if (first > kBucketCount || counts.size() > kBucketCount - first) {
    return std::nullopt;
  }
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) {
    if (c > count - total) return std::nullopt;  // also guards wrap-around
    total += c;
  }
  if (total != count || min > max) {
    return std::nullopt;
  }
  LatencyHistogram h;
  std::copy(counts.begin(), counts.end(), h.counts_.begin() + first);
  if (count > 0) {
    // The exact min and max must sit in non-empty buckets that bound every
    // sample above the underflow bucket, which alone also holds NaNs.  A
    // NaN min or max (a NaN first sample) bounds nothing.
    const std::size_t lo = std::isnan(min) ? 0 : bucket_index(min);
    const std::size_t hi = std::isnan(max) ? kBucketCount - 1 : bucket_index(max);
    if ((!std::isnan(min) && h.counts_[lo] == 0) ||
        (!std::isnan(max) && h.counts_[hi] == 0)) {
      return std::nullopt;
    }
    for (std::size_t i = std::max<std::size_t>(first, 1);
         i < first + counts.size(); ++i) {
      if (h.counts_[i] != 0 && (i < lo || i > hi)) return std::nullopt;
    }
  }
  h.count_ = count;
  h.sum_ = sum;
  h.min_ = min;
  h.max_ = max;
  return h;
}

void json_histogram(std::ostream& os, const LatencyHistogram& h) {
  os << "{\"n\":" << h.count() << ",\"min\":" << json_number(h.min())
     << ",\"mean\":" << json_number(h.mean()) << ",\"p50\":" << json_number(h.p50())
     << ",\"p90\":" << json_number(h.p90()) << ",\"p99\":" << json_number(h.p99())
     << ",\"p999\":" << json_number(h.p999()) << ",\"max\":" << json_number(h.max()) << "}";
}

}  // namespace iecd::util
