#include "periph/pwm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace iecd::periph {

PwmPeripheral::PwmPeripheral(mcu::Mcu& mcu, PwmConfig config, std::string name)
    : Peripheral(mcu, std::move(name)), config_(config) {
  if (config.prescaler == 0) {
    throw std::invalid_argument("PwmPeripheral: prescaler must be >= 1");
  }
  if (config.modulo == 0) {
    throw std::invalid_argument("PwmPeripheral: modulo must be >= 1");
  }
}

sim::SimTime PwmPeripheral::period() const {
  const std::uint64_t cycles =
      static_cast<std::uint64_t>(config_.prescaler) * config_.modulo;
  return mcu().clock().cycles_to_time(cycles);
}

std::uint64_t PwmPeripheral::periods_elapsed() const {
  if (!running_ || !analytic()) return periods_;
  return periods_ + 1 +
         static_cast<std::uint64_t>((now() - start_time_) / period());
}

void PwmPeripheral::start() {
  if (running_) return;
  running_ = true;
  start_time_ = now();
  if (analytic()) {
    // The first period begins immediately: latch the duty register here;
    // later boundaries matter only when a write is pending (see
    // set_duty_counts), so no recurring event is needed.
    active_duty_ = pending_duty_;
    average_.set(now(), duty_ratio());
    return;
  }
  // First period begins immediately; subsequent boundaries ride one recurring
  // event instead of re-arming a fresh one-shot every cycle.
  on_period_start();
  tick_event_ = queue().schedule_every(period(), [this] { on_period_start(); });
  tick_scheduled_ = true;
}

void PwmPeripheral::stop() {
  if (!running_) return;
  periods_ = periods_elapsed();  // freeze the analytic count
  running_ = false;
  if (tick_scheduled_) {
    queue().cancel(tick_event_);
    tick_scheduled_ = false;
  }
  if (latch_scheduled_) {
    queue().cancel(latch_event_);
    latch_scheduled_ = false;
  }
  average_.set(now(), 0.0);
}

void PwmPeripheral::set_duty_counts(std::uint32_t counts) {
  pending_duty_ = std::min(counts, config_.modulo);
  if (!running_) {
    // Counter stopped: the write lands directly in the active register.
    active_duty_ = pending_duty_;
    return;
  }
  if (!analytic() || latch_scheduled_) return;
  // Double-buffered semantics: the write takes effect at the next period
  // boundary strictly after now — the same instant the per-period tick
  // would have latched it.  Later writes before that boundary just update
  // the pending register; the armed latch picks up the newest value.
  const sim::SimTime t = period();
  latch_scheduled_ = true;
  latch_event_ = queue().schedule_at(
      start_time_ + ((now() - start_time_) / t + 1) * t,
      [this] { latch_pending(); });
}

void PwmPeripheral::latch_pending() {
  latch_scheduled_ = false;
  active_duty_ = pending_duty_;
  average_.set(now(), duty_ratio());
  // Keep the change log bounded for long runs; consumers integrate lazily
  // and never look further back than a control period or two.
  average_.prune_before(now() - sim::milliseconds(100));
}

void PwmPeripheral::set_duty_ratio(double ratio) {
  const double clamped = std::clamp(ratio, 0.0, 1.0);
  set_duty_counts(static_cast<std::uint32_t>(
      std::lround(clamped * static_cast<double>(config_.modulo))));
}

double PwmPeripheral::duty_ratio() const {
  return static_cast<double>(active_duty_) /
         static_cast<double>(config_.modulo);
}

void PwmPeripheral::set_edge_callback(
    std::function<void(bool, sim::SimTime)> cb) {
  edge_cb_ = std::move(cb);
}

void PwmPeripheral::on_period_start() {
  if (!running_) return;
  // Latch the double-buffered duty register at the period boundary.
  active_duty_ = pending_duty_;
  average_.set(now(), duty_ratio());
  ++periods_;
  // Keep the change log bounded for long runs; consumers integrate lazily
  // and never look further back than a control period or two.
  if ((periods_ & 0xFF) == 0) {
    average_.prune_before(now() - sim::milliseconds(100));
  }

  if (config_.reload_vector >= 0) mcu().raise_irq(config_.reload_vector);

  if (config_.edge_events && edge_cb_) {
    if (active_duty_ > 0) edge_cb_(true, now());
    if (active_duty_ < config_.modulo) {
      const std::uint64_t high_cycles =
          static_cast<std::uint64_t>(config_.prescaler) * active_duty_;
      const sim::SimTime fall = now() + mcu().clock().cycles_to_time(high_cycles);
      queue().schedule_at(fall, [this] {
        if (running_ && edge_cb_) edge_cb_(false, now());
      });
    }
  }
}

}  // namespace iecd::periph
