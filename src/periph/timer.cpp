#include "periph/timer.hpp"

#include <stdexcept>

namespace iecd::periph {

TimerPeripheral::TimerPeripheral(mcu::Mcu& mcu, TimerConfig config,
                                 std::string name)
    : Peripheral(mcu, std::move(name)), config_(config) {
  if (config.prescaler == 0 || config.modulo == 0) {
    throw std::invalid_argument("TimerPeripheral: prescaler/modulo >= 1");
  }
}

sim::SimTime TimerPeripheral::period() const {
  const std::uint64_t cycles =
      static_cast<std::uint64_t>(config_.prescaler) * config_.modulo;
  return mcu().clock().cycles_to_time(cycles);
}

void TimerPeripheral::start() {
  if (running_) return;
  running_ = true;
  epoch_ = now();
  ticks_ = 0;
  if (jitter_) {
    schedule_next();
  } else {
    arm_recurring();
  }
}

void TimerPeripheral::stop() {
  if (!running_) return;
  running_ = false;
  if (scheduled_) {
    queue().cancel(event_);
    scheduled_ = false;
  }
}

void TimerPeripheral::set_jitter_hook(
    std::function<sim::SimTime(std::uint64_t)> hook) {
  jitter_ = std::move(hook);
  if (running_ && scheduled_) {
    // Re-arm so the hook change shapes the very next activation.
    queue().cancel(event_);
    scheduled_ = false;
    if (jitter_) {
      schedule_next();
    } else {
      arm_recurring();
    }
  }
}

void TimerPeripheral::arm_recurring() {
  // Jitter-free timers ride a single recurring event: the queue re-fires it
  // at exact period multiples with no per-tick rescheduling or allocation.
  sim::SimTime p = period();
  if (p <= 0) p = 1;
  event_ = queue().schedule_every(p, [this] {
    ++ticks_;
    if (config_.overflow_vector >= 0) mcu().raise_irq(config_.overflow_vector);
  });
  scheduled_ = true;
}

void TimerPeripheral::schedule_next() {
  // Activations are anchored to the epoch (no drift accumulation): the
  // k-th tick fires at epoch + k * period + jitter(k).
  const std::uint64_t k = ticks_ + 1;
  sim::SimTime when =
      epoch_ + static_cast<sim::SimTime>(k) * period();
  if (jitter_) when += jitter_(k);
  if (when <= now()) when = now() + 1;  // keep time strictly advancing
  event_ = queue().schedule_at(when, [this] {
    scheduled_ = false;
    if (!running_) return;
    ++ticks_;
    if (config_.overflow_vector >= 0) mcu().raise_irq(config_.overflow_vector);
    schedule_next();
  });
  scheduled_ = true;
}

}  // namespace iecd::periph
