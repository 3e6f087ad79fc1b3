/// \file mcu.hpp
/// The simulated microcontroller: clock + interrupt controller + CPU,
/// instantiated from a DerivativeSpec and living inside a
/// co-simulation World.  Each peripheral holds a reference to its Mcu.
#pragma once

#include <string>

#include "mcu/clock.hpp"
#include "mcu/cpu.hpp"
#include "mcu/derivative.hpp"
#include "mcu/interrupt_controller.hpp"
#include "sim/world.hpp"

namespace iecd::mcu {

class Mcu {
 public:
  Mcu(sim::World& world, const DerivativeSpec& spec,
      std::string name = "mcu");

  const std::string& name() const { return name_; }

  const DerivativeSpec& spec() const { return spec_; }
  const Clock& clock() const { return clock_; }
  Cpu& cpu() { return cpu_; }
  const Cpu& cpu() const { return cpu_; }
  InterruptController& intc() { return intc_; }

  sim::World& world() { return world_; }
  sim::EventQueue& queue() { return world_.queue(); }
  sim::SimTime now() const { return world_.now(); }

  /// Raises an interrupt and wakes the CPU — the path every peripheral
  /// uses to signal an event.
  void raise_irq(IrqVector vec);

 private:
  sim::World& world_;
  std::string name_;
  DerivativeSpec spec_;
  Clock clock_;
  InterruptController intc_;
  Cpu cpu_;
};

}  // namespace iecd::mcu
