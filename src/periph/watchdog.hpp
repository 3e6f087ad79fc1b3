/// \file watchdog.hpp
/// Computer-operating-properly (COP) watchdog: the application must
/// refresh it within the timeout or the part resets.  In the simulated
/// production setup the real-time kernel clears the watchdog from the
/// periodic model step, so a controller that overruns its period long
/// enough gets caught — the standard last line of defence in automotive
/// control units.
#pragma once

#include <cstdint>
#include <functional>

#include "periph/peripheral.hpp"

namespace iecd::periph {

struct WatchdogConfig {
  sim::SimTime timeout = sim::milliseconds(10);
};

class WatchdogPeripheral : public Peripheral {
 public:
  WatchdogPeripheral(mcu::Mcu& mcu, WatchdogConfig config,
                     std::string name = "cop");

  const WatchdogConfig& config() const { return config_; }

  /// Arms the watchdog (idempotent; a real COP cannot be stopped once
  /// enabled).
  void enable();
  bool enabled() const { return enabled_; }

  /// Refreshes the timeout window (the service sequence).
  void refresh();

  /// Called when the watchdog expires (the "reset" in simulation — the
  /// experiment framework records it instead of rebooting the world).
  void set_bite_handler(std::function<void(sim::SimTime)> on_bite);

  std::uint64_t bites() const { return bites_; }
  std::uint64_t refreshes() const { return refreshes_; }

 private:
  void arm();

  WatchdogConfig config_;
  bool enabled_ = false;
  std::function<void(sim::SimTime)> on_bite_;
  sim::EventId event_ = 0;
  bool scheduled_ = false;
  std::uint64_t bites_ = 0;
  std::uint64_t refreshes_ = 0;
};

}  // namespace iecd::periph
