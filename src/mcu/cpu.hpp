/// \file cpu.hpp
/// The CPU execution engine: serializes ISR bodies and the background task
/// on the simulated core, charging cycle costs against simulated time.
/// Non-preemptive by construction — one activity occupies the core at a
/// time, interrupts raised meanwhile stay pending in the controller.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "mcu/clock.hpp"
#include "mcu/cost_model.hpp"
#include "mcu/interrupt_controller.hpp"
#include "sim/event_queue.hpp"

namespace iecd::mcu {

/// One retired ISR dispatch, for timing monitors.
struct DispatchRecord {
  IrqVector vec = -1;
  std::string_view name;
  sim::SimTime raise_time = 0;   ///< when the interrupt was raised
  sim::SimTime start_time = 0;   ///< when the CPU began serving it
  sim::SimTime end_time = 0;     ///< when the ISR retired (commit applied)
  std::uint64_t body_cycles = 0; ///< cycles of the handler body alone
};

class Cpu {
 public:
  Cpu(sim::EventQueue& queue, const Clock& clock, const CostModel& costs,
      InterruptController& intc);

  /// Notifies the CPU that an interrupt may be pending; dispatches if idle.
  void kick();

  bool busy() const { return busy_; }

  /// Installs an optional background (main-loop) task executed while no
  /// interrupt is pending.  The callable performs one chunk of work and
  /// returns its cycle cost; returning 0 idles the CPU until the next kick.
  void set_background(std::function<std::uint64_t()> chunk);

  /// Observer invoked after every retired ISR.
  void set_dispatch_observer(std::function<void(const DispatchRecord&)> obs);

  /// Fault-injection hook (see src/fault/): extra cycles added to a
  /// dispatch on top of entry + body + exit — an interrupt-latency spike
  /// (cache refill, flash wait states, a higher-priority blackout the model
  /// does not represent).  Consulted once per dispatch, after the body ran;
  /// null (the default) or a hook returning 0 leaves timing untouched.
  void set_dispatch_fault(
      std::function<std::uint64_t(const DispatchRecord&)> fault);

  /// Total cycles the core spent executing (ISR bodies + entry/exit +
  /// background) — utilisation = busy_time / elapsed.
  sim::SimTime busy_time() const { return busy_time_; }
  std::uint64_t dispatches() const { return dispatches_; }

  /// Worst-case observed stack depth: main stack + deepest handler frame.
  std::uint32_t max_stack_bytes() const { return max_stack_; }
  void set_main_stack_bytes(std::uint32_t bytes);

  const CostModel& costs() const { return costs_; }
  const Clock& clock() const { return clock_; }

 private:
  void dispatch_next();
  void run_background();

  sim::EventQueue& queue_;
  const Clock& clock_;
  CostModel costs_;
  InterruptController& intc_;

  bool busy_ = false;
  std::function<std::uint64_t()> background_;
  std::function<void(const DispatchRecord&)> observer_;
  std::function<std::uint64_t(const DispatchRecord&)> dispatch_fault_;
  sim::SimTime busy_time_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint32_t main_stack_ = 128;
  std::uint32_t max_stack_ = 128;
};

}  // namespace iecd::mcu
