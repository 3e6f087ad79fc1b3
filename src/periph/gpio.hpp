/// \file gpio.hpp
/// General-purpose I/O port with per-pin direction, edge interrupts, and a
/// push-button "keyboard" stimulus device with realistic contact bounce —
/// the set-point / mode interface of the servo case study.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "periph/peripheral.hpp"

namespace iecd::periph {

enum class PinDirection { kInput, kOutput };
enum class EdgeSense { kNone, kRising, kFalling, kBoth };

struct GpioConfig {
  int pins = 8;
  mcu::IrqVector irq_base = -1;  ///< vector for pin i = irq_base + i; <0: none
};

class GpioPort : public Peripheral {
 public:
  GpioPort(mcu::Mcu& mcu, GpioConfig config, std::string name = "gpio");

  const GpioConfig& config() const { return config_; }

  void set_direction(int pin, PinDirection dir);
  PinDirection direction(int pin) const;

  /// Configures which input edges raise the pin's interrupt.
  void set_edge_sense(int pin, EdgeSense sense);

  /// CPU-side write (pin must be an output).
  void write(int pin, bool level);
  /// CPU-side read: input pins return the external level, outputs read back.
  bool read(int pin) const;

  /// External-world drive of an input pin (from stimulus devices).  Fires
  /// the edge interrupt when the sense matches.
  void drive_external(int pin, bool level);

  /// Observer for output pin changes (lets tests/plants watch actuation).
  void set_output_observer(std::function<void(int, bool, sim::SimTime)> obs);

 private:
  struct Pin {
    PinDirection dir = PinDirection::kInput;
    EdgeSense sense = EdgeSense::kNone;
    bool level = false;
  };

  Pin& at(int pin);
  const Pin& at(int pin) const;

  GpioConfig config_;
  std::vector<Pin> pins_;
  std::function<void(int, bool, sim::SimTime)> output_obs_;
};

/// A push button wired to a GPIO input pin.  Pressing schedules a burst of
/// contact-bounce edges followed by the stable level; the controller's
/// debounce logic (in the model) must filter these.
class PushButton {
 public:
  PushButton(GpioPort& port, int pin, bool active_low = true);

  /// Schedules a press at \p when lasting \p hold, with \p bounces bounce
  /// edges spread over \p bounce_window at both transitions.
  void press_at(sim::SimTime when, sim::SimTime hold,
                int bounces = 4,
                sim::SimTime bounce_window = sim::microseconds(500));

  int pin() const { return pin_; }

 private:
  void emit_transition(sim::SimTime when, bool target, int bounces,
                       sim::SimTime bounce_window);

  GpioPort& port_;
  int pin_;
  bool active_low_;
};

}  // namespace iecd::periph
