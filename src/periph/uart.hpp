/// \file uart.hpp
/// Asynchronous serial interface (SCI).  Transmit bytes enter the TX FIFO
/// and leave over a sim::SerialChannel at wire speed; received bytes land
/// in a one-byte data register and raise the RX interrupt — reading too
/// late overruns, exactly the failure mode a too-slow PIL controller would
/// show on real hardware.
#pragma once

#include <cstdint>
#include <optional>

#include "obs/watermark.hpp"
#include "periph/peripheral.hpp"
#include "sim/serial_link.hpp"

namespace iecd::periph {

struct UartConfig {
  mcu::IrqVector rx_vector = -1;
  mcu::IrqVector tx_vector = -1;  ///< raised when the TX FIFO drains
  std::size_t tx_fifo_depth = 64;
};

class UartPeripheral : public Peripheral {
 public:
  UartPeripheral(mcu::Mcu& mcu, UartConfig config, std::string name = "uart");

  /// Wires this UART to one direction pair of a SerialLink: \p tx is the
  /// channel this UART transmits into, \p rx the channel it listens on.
  void connect(sim::SerialChannel& tx, sim::SerialChannel& rx);

  /// Queues a byte for transmission.  Returns false if the FIFO is full.
  bool send(std::uint8_t byte);

  /// Queues a buffer as one burst onto the wire; returns bytes accepted
  /// (clipped to the free FIFO slots).  Costs one event regardless of
  /// length: FIFO occupancy is tracked analytically from the drain instant.
  std::size_t send(const std::uint8_t* data, std::size_t len);

  /// Bytes still occupying TX FIFO slots (derived from the wire schedule).
  std::size_t tx_in_flight() const;

  /// Reads and clears the RX data register.
  std::optional<std::uint8_t> read();

  bool rx_full() const { return rx_valid_; }
  std::uint64_t overruns() const { return overruns_; }

  /// Observability hook: when set, TX FIFO occupancy (bytes queued after
  /// each accepted send) is pushed into \p monitor.  WatermarkMonitor is
  /// header-only, so this costs no link dependency; null detaches.
  void set_tx_fifo_monitor(obs::WatermarkMonitor* monitor) {
    tx_fifo_monitor_ = monitor;
  }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  void on_rx_byte(std::uint8_t byte, sim::SimTime when);
  void arm_drain_event();

  UartConfig config_;
  sim::SerialChannel* tx_ = nullptr;
  std::uint8_t rx_data_ = 0;
  bool rx_valid_ = false;
  std::uint64_t overruns_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  /// Wire instant the TX FIFO is fully drained; one chased event raises
  /// the TX interrupt when it passes.
  sim::SimTime tx_busy_until_ = 0;
  bool drain_armed_ = false;
  obs::WatermarkMonitor* tx_fifo_monitor_ = nullptr;
};

}  // namespace iecd::periph
