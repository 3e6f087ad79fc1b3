/// \file pwm.hpp
/// Pulse-width-modulation module.  The counter runs at core clock /
/// prescaler and wraps at `modulo`; the duty register sets the compare
/// point.  Duty writes are double-buffered: they take effect at the next
/// period boundary, exactly as on the target hardware (this is visible in
/// the servo case study as up to one PWM period of extra actuation delay).
/// Consumers read either the cycle-averaged output (a ZohSignal the plant
/// integrates) or subscribe to edge callbacks for waveform-level tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>

#include "periph/peripheral.hpp"
#include "sim/zoh_signal.hpp"

namespace iecd::periph {

/// The duty a counter with \p modulo counts per period can hold: the
/// ratio clamped to [0, 1] and rounded to the nearest count.  modulo <= 0
/// (a bean that never solved its timing) clamps only.  The MIL PWM block
/// and every batch lane latch their duty through this one function.
inline double quantize_duty(double ratio, std::int64_t modulo) {
  const double clamped = std::clamp(ratio, 0.0, 1.0);
  if (modulo <= 0) return clamped;
  const double steps = static_cast<double>(modulo);
  return std::round(clamped * steps) / steps;
}

/// The SetRatio16 word for a duty in [0, 1], rounded to nearest (the bean
/// reads it back as word / 65535).  The PWM block's target write, the farm
/// node's tick commit and the CAN rig's controller commit convert through
/// it.
inline std::uint16_t duty_to_ratio16(double duty) {
  return static_cast<std::uint16_t>(std::lround(duty * 65535.0));
}

struct PwmConfig {
  std::uint32_t prescaler = 1;
  std::uint32_t modulo = 1000;     ///< counts per period
  mcu::IrqVector reload_vector = -1;  ///< <0: no end-of-period interrupt
  bool edge_events = false;        ///< invoke edge callbacks (slower)
};

class PwmPeripheral : public Peripheral {
 public:
  PwmPeripheral(mcu::Mcu& mcu, PwmConfig config, std::string name = "pwm");

  const PwmConfig& config() const { return config_; }

  /// Period of one PWM cycle in simulated time.
  sim::SimTime period() const;

  /// Starts the counter (idempotent).
  void start();
  void stop();
  bool running() const { return running_; }

  /// Sets the compare value in counts [0, modulo]; latched at the next
  /// period boundary (double-buffered duty register).
  void set_duty_counts(std::uint32_t counts);

  /// Sets duty as a ratio in [0, 1].
  void set_duty_ratio(double ratio);

  /// Currently *active* duty ratio (after latching).
  double duty_ratio() const;
  std::uint32_t duty_counts() const { return active_duty_; }

  /// Cycle-averaged output level in [0, 1]: what an H-bridge + motor
  /// effectively sees.  Updated at period boundaries when the latched duty
  /// changes.
  const sim::ZohSignal& average_output() const { return average_; }

  /// Edge callback (level, time); only fired when config.edge_events.
  void set_edge_callback(std::function<void(bool, sim::SimTime)> cb);

  std::uint64_t periods_elapsed() const;

 private:
  void on_period_start();
  void latch_pending();

  /// Without an end-of-period interrupt or edge events the only
  /// period-boundary effect is latching the double-buffered duty, so the
  /// counter needs no per-period event: each duty write schedules one
  /// latch at its next boundary and periods_elapsed() is computed from
  /// the start instant.  Observable behaviour (latch instants, the
  /// average-output change log, period counts) is identical.
  bool analytic() const {
    return config_.reload_vector < 0 && !config_.edge_events;
  }

  PwmConfig config_;
  bool running_ = false;
  std::uint32_t active_duty_ = 0;
  std::uint32_t pending_duty_ = 0;
  sim::ZohSignal average_{0.0};
  std::function<void(bool, sim::SimTime)> edge_cb_;
  std::uint64_t periods_ = 0;  ///< analytic mode: count frozen at stop()
  sim::SimTime start_time_ = 0;
  sim::EventId tick_event_ = 0;
  bool tick_scheduled_ = false;
  sim::EventId latch_event_ = 0;
  bool latch_scheduled_ = false;
};

}  // namespace iecd::periph
