#include "periph/capture.hpp"

namespace iecd::periph {

CapturePeripheral::CapturePeripheral(mcu::Mcu& mcu, CaptureConfig config,
                                     std::string name)
    : Peripheral(mcu, std::move(name)), config_(config) {}

bool CapturePeripheral::qualifies(bool level) const {
  switch (config_.edge) {
    case CaptureEdge::kRising:
      return !last_level_ && level;
    case CaptureEdge::kFalling:
      return last_level_ && !level;
    case CaptureEdge::kBoth:
      return last_level_ != level;
  }
  return false;
}

void CapturePeripheral::input_edge(bool level) {
  const bool hit = qualifies(level);
  last_level_ = level;
  if (!hit) return;
  const sim::SimTime t = now();
  if (last_capture_ >= 0) last_interval_ = t - last_capture_;
  last_capture_ = t;
  ++captures_;
  if (config_.capture_vector >= 0) mcu().raise_irq(config_.capture_vector);
}

double CapturePeripheral::measured_frequency_hz() const {
  if (last_interval_ <= 0) return 0.0;
  return 1e9 / static_cast<double>(last_interval_);
}

}  // namespace iecd::periph
