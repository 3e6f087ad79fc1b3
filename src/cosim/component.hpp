/// \file component.hpp
/// Co-simulation components.  A Component is one independently
/// stepped piece of a composed topology — a full MCU board with its local
/// plant, a lightweight model node, a traffic generator — advanced by the
/// master's step-negotiation loop (master.hpp).  The contract mirrors an
/// FMI co-simulation slave:
///
///   * horizon() advertises the absolute time of the component's next
///     internal event (sim::kNever when idle).  Outputs change only at
///     events, so the master may safely advance every component to the
///     minimum advertised horizon without missing an interaction.
///   * advance_to(t) steps local time to exactly t.  The master only ever
///     passes t == the negotiated global minimum, so everything a
///     component does during advance_to — including transmitting onto a
///     shared bus — happens at a time every other component has already
///     reached.  t is monotonic across calls; a component is never stepped
///     backwards.
///
/// WorldComponent is the standard full-fidelity implementation: the
/// component owns a private sim::World (its own event queue), and the
/// horizon is simply the queue's next event time.  Lightweight components
/// (model nodes per MultiCoSim's multi-fidelity swapping) implement the
/// interface directly with whatever internal clock they keep.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "sim/world.hpp"

namespace iecd::cosim {

class Component {
 public:
  virtual ~Component() = default;

  virtual const std::string& name() const = 0;

  /// Absolute time of the next internal event, or sim::kNever when the
  /// component has nothing scheduled.  Must never move backwards past the
  /// last advance_to() target.
  virtual sim::SimTime horizon() const = 0;

  /// Advances local time to exactly \p t (>= the previous target).  All
  /// interaction with shared couplings during the call happens at time t.
  virtual void advance_to(sim::SimTime t) = 0;

  /// Events executed so far (0 for components without an event queue);
  /// the master folds these into its stats.
  virtual std::uint64_t events_executed() const { return 0; }
};

/// A component wrapping a private sim::World: MCU boards, plants and
/// probes live in `world()` exactly as they would in a monolithic rig;
/// the event queue's next_time() is the advertised horizon.
class WorldComponent : public Component {
 public:
  explicit WorldComponent(std::string name) : name_(std::move(name)) {}

  const std::string& name() const override { return name_; }
  sim::World& world() { return world_; }
  const sim::World& world() const { return world_; }

  sim::SimTime horizon() const override { return world_.queue().next_time(); }
  void advance_to(sim::SimTime t) override { world_.run_until(t); }
  std::uint64_t events_executed() const override {
    return world_.queue().events_executed();
  }

 private:
  std::string name_;
  sim::World world_;
};

}  // namespace iecd::cosim
