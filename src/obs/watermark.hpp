/// \file watermark.hpp
/// WatermarkMonitor: allocation-free high/low-watermark tracking for
/// occupancy-style quantities — event-queue depth, UART TX FIFO fill, CAN
/// bus load, PIL backlog.  Header-only and dependency-free on purpose:
/// low-level layers (periph, sim) can hold a raw pointer to one and update
/// it from their hot paths without linking the obs library.
#pragma once

#include <cstdint>

namespace iecd::obs {

class WatermarkMonitor {
 public:
  /// Records one observation.  A handful of scalar compares/adds — safe on
  /// any hot path; no allocation ever.
  void update(double value) {
    current_ = value;
    if (samples_ == 0) {
      peak_ = value;
      low_ = value;
    } else {
      if (value > peak_) peak_ = value;
      if (value < low_) low_ = value;
    }
    sum_ += value;
    ++samples_;
  }

  double current() const { return current_; }
  double peak() const { return samples_ ? peak_ : 0.0; }
  double low() const { return samples_ ? low_ : 0.0; }
  double mean() const {
    return samples_ ? sum_ / static_cast<double>(samples_) : 0.0;
  }
  std::uint64_t samples() const { return samples_; }
  /// Raw running sum (campaign checkpoints serialize it alongside
  /// current/peak/low/samples — the monitor's full state).
  double sum() const { return sum_; }

  /// Rebuilds a monitor from raw state (checkpoint round-trip).
  static WatermarkMonitor from_raw(double current, double peak, double low,
                                   double sum, std::uint64_t samples) {
    WatermarkMonitor m;
    m.current_ = current;
    m.peak_ = peak;
    m.low_ = low;
    m.sum_ = sum;
    m.samples_ = samples;
    return m;
  }

  /// Deterministic fold (sweep merge): peak/low combine, sums add; the
  /// merged `current` keeps this monitor's last observation.
  void merge(const WatermarkMonitor& other) {
    if (other.samples_ == 0) return;
    if (samples_ == 0) {
      peak_ = other.peak_;
      low_ = other.low_;
      current_ = other.current_;
    } else {
      if (other.peak_ > peak_) peak_ = other.peak_;
      if (other.low_ < low_) low_ = other.low_;
    }
    sum_ += other.sum_;
    samples_ += other.samples_;
  }

 private:
  double current_ = 0.0;
  double peak_ = 0.0;
  double low_ = 0.0;
  double sum_ = 0.0;
  std::uint64_t samples_ = 0;
};

}  // namespace iecd::obs
