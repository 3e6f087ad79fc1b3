/// \file bus.hpp
/// Shared-bus coupling for the co-simulation master.  A SharedCanBus owns
/// a private bus world containing one sim::CanBus — arbitration, wire
/// time, CRC integrity and the fault hook are exactly the monolithic bus
/// model — and mediates delivery across component boundaries:
///
///   * Transmit side: attached controllers call sim::CanBus::transmit
///     directly (CanController::connect_external).  The master advances
///     every bus coupling to the negotiated boundary BEFORE the node
///     components, so a transmit during a node's advance_to(t) lands on a
///     bus whose local clock already reads t.
///   * Receive side: the bus's delivery events fire inside the bus world;
///     each port's wrapper callback only buffers (frame, time).  After all
///     components have reached the boundary the master calls exchange(),
///     which re-schedules each buffered delivery into the destination
///     component's own world at the exact delivery time (deliveries always
///     fire at the negotiated boundary — a delivery event is itself a bus
///     horizon, so the master can never overshoot one).  Model-fidelity
///     ports without a world get the callback synchronously at exchange.
///
/// Delivery buffering keeps cross-world causality exact: the destination
/// node's interrupt is raised at precisely the time the monolithic bus
/// would have raised it, just from its own queue.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cosim/component.hpp"
#include "periph/can_controller.hpp"
#include "sim/can_bus.hpp"
#include "sim/world.hpp"
#include "util/diagnostics.hpp"

namespace iecd::cosim {

class SharedCanBus : public Component {
 public:
  /// Port delivery callback: accepted frame + its bus delivery time.
  using DeliverFn = std::function<void(const sim::CanFrame&, sim::SimTime)>;

  SharedCanBus(std::string name, std::uint32_t bitrate_bps);

  /// The bit-rate rule: classic CAN runs at 1 bit/s up to 1 Mbit/s.  A
  /// violation is reported against \p field, the caller's name for the
  /// rate.
  static util::DiagnosticList validate(std::uint32_t bitrate_bps,
                                       std::string field);

  const std::string& name() const override { return name_; }

  sim::CanBus& can() { return can_; }
  const sim::CanBus& can() const { return can_; }
  sim::World& bus_world() { return world_; }

  /// Attaches a full-fidelity port: deliveries are re-scheduled into
  /// \p target_world at their bus delivery time and invoke \p deliver
  /// there.  Returns the bus node id to transmit under.
  sim::CanBus::NodeId attach_port(const std::string& port_name,
                                  sim::World& target_world,
                                  DeliverFn deliver);

  /// Attaches a model-fidelity port (no world of its own): \p deliver runs
  /// synchronously during exchange(), stamped with the delivery time.
  sim::CanBus::NodeId attach_model_port(const std::string& port_name,
                                        DeliverFn deliver);

  /// Attaches an MCU CAN controller: transmits go straight to the shared
  /// bus, deliveries come back through CanController::deliver at the exact
  /// bus delivery time inside the controller's own world.
  void attach_controller(periph::CanController& controller);

  // ------------------------------------------------------------ Component
  sim::SimTime horizon() const override { return world_.queue().next_time(); }
  void advance_to(sim::SimTime t) override { world_.run_until(t); }
  std::uint64_t events_executed() const override {
    return world_.queue().events_executed();
  }

  /// Flushes deliveries buffered during the last advance_to into the
  /// destination components.  Called by the master once per negotiated
  /// boundary, after every component has reached it.
  void exchange();

 private:
  struct Port {
    sim::World* world = nullptr;  ///< null: model-fidelity port
    DeliverFn deliver;
  };
  struct Buffered {
    std::size_t port;
    sim::CanFrame frame;
    sim::SimTime when;
  };

  std::string name_;
  sim::World world_;
  sim::CanBus can_;
  std::vector<Port> ports_;
  std::vector<Buffered> buffered_;
};

}  // namespace iecd::cosim
