#include "periph/gpio.hpp"

#include <stdexcept>

namespace iecd::periph {

GpioPort::GpioPort(mcu::Mcu& mcu, GpioConfig config, std::string name)
    : Peripheral(mcu, std::move(name)),
      config_(config),
      pins_(static_cast<std::size_t>(config.pins)) {
  if (config.pins < 1) throw std::invalid_argument("GpioPort: pins >= 1");
}

GpioPort::Pin& GpioPort::at(int pin) {
  if (pin < 0 || pin >= config_.pins) {
    throw std::out_of_range("GpioPort: pin out of range");
  }
  return pins_[static_cast<std::size_t>(pin)];
}

const GpioPort::Pin& GpioPort::at(int pin) const {
  if (pin < 0 || pin >= config_.pins) {
    throw std::out_of_range("GpioPort: pin out of range");
  }
  return pins_[static_cast<std::size_t>(pin)];
}

void GpioPort::set_direction(int pin, PinDirection dir) { at(pin).dir = dir; }

PinDirection GpioPort::direction(int pin) const { return at(pin).dir; }

void GpioPort::set_edge_sense(int pin, EdgeSense sense) {
  at(pin).sense = sense;
}

void GpioPort::write(int pin, bool level) {
  Pin& p = at(pin);
  if (p.dir != PinDirection::kOutput) {
    throw std::logic_error("GpioPort: write to input pin");
  }
  if (p.level == level) return;
  p.level = level;
  if (output_obs_) output_obs_(pin, level, now());
}

bool GpioPort::read(int pin) const { return at(pin).level; }

void GpioPort::drive_external(int pin, bool level) {
  Pin& p = at(pin);
  if (p.dir != PinDirection::kInput) return;  // fighting an output: ignore
  const bool old = p.level;
  if (old == level) return;
  p.level = level;
  const bool rising = !old && level;
  const bool falling = old && !level;
  const bool fire = (p.sense == EdgeSense::kBoth) ||
                    (p.sense == EdgeSense::kRising && rising) ||
                    (p.sense == EdgeSense::kFalling && falling);
  if (fire && config_.irq_base >= 0) mcu().raise_irq(config_.irq_base + pin);
}

void GpioPort::set_output_observer(
    std::function<void(int, bool, sim::SimTime)> obs) {
  output_obs_ = std::move(obs);
}

PushButton::PushButton(GpioPort& port, int pin, bool active_low)
    : port_(port), pin_(pin), active_low_(active_low) {
  port_.set_direction(pin, PinDirection::kInput);
  // Idle level: pulled up for active-low buttons.
  port_.drive_external(pin, active_low_);
}

void PushButton::press_at(sim::SimTime when, sim::SimTime hold, int bounces,
                          sim::SimTime bounce_window) {
  const bool pressed_level = !active_low_;
  emit_transition(when, pressed_level, bounces, bounce_window);
  emit_transition(when + hold, !pressed_level, bounces, bounce_window);
}

void PushButton::emit_transition(sim::SimTime when, bool target, int bounces,
                                 sim::SimTime bounce_window) {
  auto& queue = port_.mcu().queue();
  // Bounce: alternate target/!target levels, then settle on target.
  for (int i = 0; i < bounces; ++i) {
    const sim::SimTime t =
        when + bounce_window * i / (bounces + 1);
    const bool level = (i % 2 == 0) ? target : !target;
    queue.schedule_at(t, [this, level] {
      port_.drive_external(pin_, level);
    });
  }
  queue.schedule_at(when + bounce_window, [this, target] {
    port_.drive_external(pin_, target);
  });
}

}  // namespace iecd::periph
