/// \file interrupt_controller.hpp
/// Vectored interrupt controller with fixed priorities.  Matches the
/// execution model the paper's target generates: periodic model code runs
/// non-preemptively inside a timer interrupt, asynchronous function-call
/// subsystems run inside peripheral interrupt service routines, and nothing
/// preempts a running ISR (interrupts stay pending until the CPU retires
/// the current one).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace iecd::mcu {

using IrqVector = int;

/// Handler contract: the body runs logically at ISR start (samples inputs,
/// computes) and returns its cost in core cycles; the optional commit runs
/// at ISR end (applies outputs), modelling the sample-to-actuation delay.
struct IsrHandler {
  std::function<std::uint64_t()> body;
  std::function<void()> commit;
  std::uint32_t stack_bytes = 64;
  std::string name;
};

class InterruptController {
 public:
  /// Registers vector \p vec with \p priority (lower value = served first).
  /// Vectors must be registered before they can be raised.
  void register_vector(IrqVector vec, int priority, IsrHandler handler);

  bool is_registered(IrqVector vec) const;
  void set_enabled(IrqVector vec, bool enabled);
  bool enabled(IrqVector vec) const;

  /// Marks the vector pending at \p now.  Returns false if masked/unknown
  /// (the event is lost, as on real silicon without a latch).
  bool raise(IrqVector vec, sim::SimTime now);

  /// True if any enabled vector is pending.
  bool any_pending() const;

  /// Pops the highest-priority pending enabled vector; returns -1 if none.
  IrqVector acknowledge();

  /// Access to the handler of a vector (valid after registration).
  const IsrHandler& handler(IrqVector vec) const;

  /// Raise timestamp of the last acknowledge()d request (for response-time
  /// profiling).
  sim::SimTime last_raise_time() const { return last_raise_time_; }

  /// Pending requests lost because the vector was raised while already
  /// pending (overruns: the ISR could not keep up).
  std::uint64_t overruns() const { return overruns_; }

 private:
  struct Line {
    IrqVector vec = -1;
    int priority = 0;
    bool enabled = true;
    bool pending = false;
    sim::SimTime raise_time = 0;
    IsrHandler handler;
  };

  Line* find(IrqVector vec);
  const Line* find(IrqVector vec) const;

  std::vector<Line> lines_;
  sim::SimTime last_raise_time_ = 0;
  std::uint64_t overruns_ = 0;
};

}  // namespace iecd::mcu
