#include "util/statistics.hpp"

#include <algorithm>
#include <cmath>

namespace iecd::util {

void RunningStats::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

RunningStats RunningStats::from_raw(std::size_t count, double mean, double m2,
                                    double sum, double min, double max) {
  RunningStats s;
  if (count == 0) return s;
  s.count_ = count;
  s.mean_ = mean;
  s.m2_ = m2;
  s.sum_ = sum;
  s.min_ = min;
  s.max_ = max;
  return s;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

const std::vector<double>& SampleSeries::sorted() const {
  if (!sorted_valid_ || sorted_.size() != samples_.size()) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return sorted_;
}

double SampleSeries::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSeries::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double x : samples_) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(samples_.size()));
}

double SampleSeries::min() const {
  return samples_.empty() ? 0.0 : sorted().front();
}

double SampleSeries::max() const {
  return samples_.empty() ? 0.0 : sorted().back();
}

double SampleSeries::percentile(double p) const {
  if (std::isnan(p)) return std::numeric_limits<double>::quiet_NaN();
  if (samples_.empty()) return 0.0;
  const auto& s = sorted();
  if (s.size() == 1) return s[0];
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double pos = clamped / 100.0 * static_cast<double>(s.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= s.size()) return s.back();
  return s[idx] * (1.0 - frac) + s[idx + 1] * frac;
}

double SampleSeries::peak_deviation() const {
  if (samples_.empty()) return 0.0;
  const double m = mean();
  double peak = 0.0;
  for (double x : samples_) peak = std::max(peak, std::abs(x - m));
  return peak;
}

}  // namespace iecd::util
