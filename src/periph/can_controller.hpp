/// \file can_controller.hpp
/// On-chip CAN controller: couples an MCU to the shared bus with an
/// acceptance filter, a single receive buffer (overrun semantics like the
/// UART's) and a receive interrupt.
#pragma once

#include <optional>

#include "periph/peripheral.hpp"
#include "sim/can_bus.hpp"

namespace iecd::periph {

struct CanControllerConfig {
  std::uint32_t acceptance_id = 0;    ///< matched against (id & mask)
  std::uint32_t acceptance_mask = 0;  ///< 0 accepts everything
  mcu::IrqVector rx_vector = -1;
};

class CanController : public Peripheral {
 public:
  CanController(mcu::Mcu& mcu, CanControllerConfig config,
                std::string name = "can0");

  /// Joins the bus (once).
  void connect(sim::CanBus& bus);

  /// Joins a bus whose delivery path is mediated externally (the co-sim
  /// master's shared-bus coupling, src/cosim/): the controller transmits
  /// into \p bus under \p node, but registers NO receive callback — the
  /// mediator buffers deliveries at the bus boundary and hands them back
  /// through deliver() at the negotiated exchange time.
  void connect_external(sim::CanBus& bus, sim::CanBus::NodeId node);

  /// Delivery entry point for externally mediated buses: runs the exact
  /// acceptance-filter / rx-buffer / interrupt path a directly connected
  /// controller runs inside the bus's delivery event.
  void deliver(const sim::CanFrame& frame, sim::SimTime when) {
    on_rx(frame, when);
  }

  /// Queues a frame for transmission.  Returns false when disconnected or
  /// the frame is malformed.
  bool send(const sim::CanFrame& frame);

  /// Reads and clears the receive buffer.
  std::optional<sim::CanFrame> read();

  bool rx_full() const { return rx_valid_; }
  std::uint64_t overruns() const { return overruns_; }
  std::uint64_t frames_sent() const { return sent_; }
  std::uint64_t frames_received() const { return received_; }

 private:
  bool accepts(const sim::CanFrame& frame) const;
  void on_rx(const sim::CanFrame& frame, sim::SimTime when);

  CanControllerConfig config_;
  sim::CanBus* bus_ = nullptr;
  sim::CanBus::NodeId node_ = -1;
  sim::CanFrame rx_frame_;
  bool rx_valid_ = false;
  std::uint64_t overruns_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace iecd::periph
