#include "model/logging.hpp"

#include <algorithm>

namespace iecd::model {

double SampleLog::last_value() const {
  return values_.empty() ? 0.0 : values_.back();
}

double SampleLog::max_value() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

double SampleLog::min_value() const {
  return values_.empty() ? 0.0
                         : *std::min_element(values_.begin(), values_.end());
}

double SampleLog::sample(double t) const {
  if (times_.empty()) return 0.0;
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  if (it == times_.begin()) return values_.front();
  const auto idx = static_cast<std::size_t>(it - times_.begin()) - 1;
  return values_[idx];
}

void SampleLog::clear() {
  times_.clear();
  values_.clear();
}

}  // namespace iecd::model
