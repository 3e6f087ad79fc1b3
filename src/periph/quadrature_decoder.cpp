#include "periph/quadrature_decoder.hpp"

namespace iecd::periph {

QuadDecPeripheral::QuadDecPeripheral(mcu::Mcu& mcu, QuadDecConfig config,
                                     std::string name)
    : Peripheral(mcu, std::move(name)), config_(config) {}

void QuadDecPeripheral::edge(int direction) {
  add_counts(direction >= 0 ? 1 : -1);
}

void QuadDecPeripheral::add_counts(std::int32_t delta) {
  extended_ += delta;
  // 16-bit two's-complement wraparound, matching the hardware register.
  position_ = static_cast<std::int16_t>(
      static_cast<std::uint16_t>(position_) +
      static_cast<std::uint16_t>(static_cast<std::int16_t>(delta)));
}

void QuadDecPeripheral::index_pulse() {
  index_latch_ = position_;
  ++index_pulses_;
  if (config_.clear_on_index) position_ = 0;
  if (config_.index_vector >= 0) mcu().raise_irq(config_.index_vector);
}

void QuadDecPeripheral::zero() {
  sync();
  position_ = 0;
  extended_ = 0;
}

}  // namespace iecd::periph
