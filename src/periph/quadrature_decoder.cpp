#include "periph/quadrature_decoder.hpp"

namespace iecd::periph {

QuadDecPeripheral::QuadDecPeripheral(mcu::Mcu& mcu, QuadDecConfig config,
                                     std::string name)
    : Peripheral(mcu, std::move(name)), config_(config) {}

void QuadDecPeripheral::index_pulse() {
  sync();
  count_index(1, input_);
  if (config_.clear_on_index) position_base_ = input_;
  if (config_.index_vector >= 0) mcu().raise_irq(config_.index_vector);
}

void QuadDecPeripheral::count_index(std::uint64_t pulses,
                                    std::int64_t input) {
  index_latch_ = wrap_counts(input - position_base_);
  index_pulses_ += pulses;
}

void QuadDecPeripheral::zero() {
  sync();
  position_base_ = input_;
  extended_base_ = input_;
}

}  // namespace iecd::periph
