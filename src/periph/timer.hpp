/// \file timer.hpp
/// General-purpose timer channel generating the periodic interrupt that
/// drives the generated model code (the paper: "periodic parts of the model
/// code are executed non-preemptively in a timer interrupt").  Period =
/// prescaler * modulo / core clock.  An optional deterministic jitter hook
/// lets experiments (E6) perturb activation times the way a loaded bus or
/// a low-resolution clock would.
#pragma once

#include <cstdint>
#include <functional>

#include "periph/peripheral.hpp"

namespace iecd::periph {

struct TimerConfig {
  std::uint32_t prescaler = 1;
  std::uint32_t modulo = 60000;
  mcu::IrqVector overflow_vector = -1;
};

class TimerPeripheral : public Peripheral {
 public:
  TimerPeripheral(mcu::Mcu& mcu, TimerConfig config,
                  std::string name = "timer");

  const TimerConfig& config() const { return config_; }

  /// Nominal activation period.
  sim::SimTime period() const;

  void start();
  void stop();
  bool running() const { return running_; }

  /// Deterministic jitter injection: called before each activation with the
  /// tick index; the returned offset (ns, may be negative but must keep the
  /// activation after the previous one) shifts that activation.
  void set_jitter_hook(std::function<sim::SimTime(std::uint64_t)> hook);

  std::uint64_t ticks() const { return ticks_; }

 private:
  void schedule_next();
  void arm_recurring();

  TimerConfig config_;
  bool running_ = false;
  std::uint64_t ticks_ = 0;
  sim::SimTime epoch_ = 0;
  std::function<sim::SimTime(std::uint64_t)> jitter_;
  sim::EventId event_ = 0;
  bool scheduled_ = false;
};

}  // namespace iecd::periph
