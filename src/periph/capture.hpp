/// \file capture.hpp
/// Input-capture timer channel: timestamps input edges against the free-
/// running counter and reports the interval between captures — the classic
/// way to measure a pulse train's period (tachometers, PWM inputs) and the
/// software fallback for speed feedback on derivatives without a
/// quadrature decoder.
#pragma once

#include <cstdint>

#include "periph/peripheral.hpp"

namespace iecd::periph {

enum class CaptureEdge { kRising, kFalling, kBoth };

struct CaptureConfig {
  CaptureEdge edge = CaptureEdge::kRising;
  mcu::IrqVector capture_vector = -1;  ///< <0: no capture interrupt
};

class CapturePeripheral : public Peripheral {
 public:
  CapturePeripheral(mcu::Mcu& mcu, CaptureConfig config,
                    std::string name = "icu");

  const CaptureConfig& config() const { return config_; }

  /// External signal drive (from a PWM edge callback, an encoder channel,
  /// or any stimulus device).
  void input_edge(bool level);

  /// Interval between the last two qualifying captures (0 until two
  /// captures happened).
  sim::SimTime last_interval() const { return last_interval_; }
  sim::SimTime last_capture_time() const { return last_capture_; }
  std::uint64_t captures() const { return captures_; }

  /// Measured frequency from the last interval [Hz]; 0 if unknown.
  double measured_frequency_hz() const;

 private:
  bool qualifies(bool level) const;

  CaptureConfig config_;
  bool last_level_ = false;
  sim::SimTime last_capture_ = -1;
  sim::SimTime last_interval_ = 0;
  std::uint64_t captures_ = 0;
};

}  // namespace iecd::periph
