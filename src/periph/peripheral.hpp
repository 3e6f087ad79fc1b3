/// \file peripheral.hpp
/// Base for on-chip peripherals: owns the back-reference to the MCU whose
/// event queue and interrupt controller the peripheral drives.  A
/// peripheral is built with its board and dropped with it.
#pragma once

#include <string>

#include "mcu/mcu.hpp"

namespace iecd::periph {

class Peripheral {
 public:
  Peripheral(mcu::Mcu& mcu, std::string name)
      : mcu_(mcu), name_(std::move(name)) {}

  Peripheral(const Peripheral&) = delete;
  Peripheral& operator=(const Peripheral&) = delete;

  const std::string& name() const { return name_; }
  mcu::Mcu& mcu() { return mcu_; }
  const mcu::Mcu& mcu() const { return mcu_; }

 protected:
  sim::EventQueue& queue() { return mcu_.queue(); }
  sim::SimTime now() const { return mcu_.now(); }
  ~Peripheral() = default;  ///< never deleted through the base

 private:
  mcu::Mcu& mcu_;
  std::string name_;
};

/// Conventional interrupt vector numbers used by the beans layer when
/// wiring peripherals.  Priorities are assigned separately.
enum IrqVectors : mcu::IrqVector {
  kIrqTimerBase = 10,   // +channel
  kIrqAdcBase = 30,     // +converter
  kIrqPwmBase = 40,     // +module (reload interrupt)
  kIrqGpioBase = 50,    // +pin
  kIrqUartRxBase = 70,  // +uart
  kIrqUartTxBase = 80,  // +uart
  kIrqQdecBase = 90,    // +decoder (index pulse)
};

}  // namespace iecd::periph
