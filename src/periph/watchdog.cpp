#include "periph/watchdog.hpp"

#include <stdexcept>

namespace iecd::periph {

WatchdogPeripheral::WatchdogPeripheral(mcu::Mcu& mcu, WatchdogConfig config,
                                       std::string name)
    : Peripheral(mcu, std::move(name)), config_(config) {
  if (config.timeout <= 0) {
    throw std::invalid_argument("WatchdogPeripheral: timeout must be > 0");
  }
}

void WatchdogPeripheral::set_bite_handler(
    std::function<void(sim::SimTime)> on_bite) {
  on_bite_ = std::move(on_bite);
}

void WatchdogPeripheral::enable() {
  if (enabled_) return;
  enabled_ = true;
  arm();
}

void WatchdogPeripheral::arm() {
  event_ = queue().schedule_in(config_.timeout, [this] {
    scheduled_ = false;
    ++bites_;
    if (on_bite_) on_bite_(now());
    arm();  // a real COP keeps resetting until the software recovers
  });
  scheduled_ = true;
}

void WatchdogPeripheral::refresh() {
  ++refreshes_;
  if (!enabled_) return;
  if (scheduled_) queue().cancel(event_);
  arm();
}

}  // namespace iecd::periph
