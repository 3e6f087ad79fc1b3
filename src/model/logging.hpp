/// \file logging.hpp
/// Time-series capture for scopes, PIL probes and experiment reports.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace iecd::model {

/// One recorded channel: strictly increasing timestamps with values.
class SampleLog {
 public:
  /// Appends (t, value); a repeated t overwrites the last value (a minor
  /// re-evaluation), and an earlier t throws std::invalid_argument.
  void record(double t, double value) {
    if (!times_.empty() && t <= times_.back()) {
      if (t < times_.back()) {
        throw std::invalid_argument("SampleLog: non-monotonic timestamp");
      }
      values_.back() = value;
      return;
    }
    times_.push_back(t);
    values_.push_back(value);
  }
  /// Room for \p n samples before record() reallocates.
  void reserve(std::size_t n) {
    times_.reserve(n);
    values_.reserve(n);
  }

  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }
  double time_at(std::size_t i) const { return times_.at(i); }
  double value_at(std::size_t i) const { return values_.at(i); }
  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }

  double last_value() const;
  double max_value() const;
  double min_value() const;

  /// Zero-order-hold interpolation at time \p t.
  double sample(double t) const;

  void clear();

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace iecd::model
