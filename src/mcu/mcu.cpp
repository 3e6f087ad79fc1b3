#include "mcu/mcu.hpp"

namespace iecd::mcu {

Mcu::Mcu(sim::World& world, const DerivativeSpec& spec, std::string name)
    : world_(world),
      name_(std::move(name)),
      spec_(spec),
      clock_(spec.clock_hz),
      cpu_(world.queue(), clock_, spec.costs, intc_) {}

void Mcu::raise_irq(IrqVector vec) {
  if (intc_.raise(vec, world_.now())) cpu_.kick();
}

}  // namespace iecd::mcu
