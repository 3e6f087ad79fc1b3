#include "periph/uart.hpp"

#include <algorithm>

namespace iecd::periph {

UartPeripheral::UartPeripheral(mcu::Mcu& mcu, UartConfig config,
                               std::string name)
    : Peripheral(mcu, std::move(name)), config_(config) {}

void UartPeripheral::connect(sim::SerialChannel& tx, sim::SerialChannel& rx) {
  tx_ = &tx;
  rx.set_receiver([this](std::uint8_t byte, sim::SimTime when) {
    on_rx_byte(byte, when);
  });
}

std::size_t UartPeripheral::tx_in_flight() const {
  if (tx_busy_until_ <= now()) return 0;
  const sim::SimTime bt = tx_->config().byte_time();
  // Ceil: a partially shifted byte still occupies its FIFO slot.
  return static_cast<std::size_t>((tx_busy_until_ - now() + bt - 1) / bt);
}

void UartPeripheral::arm_drain_event() {
  if (drain_armed_) return;
  drain_armed_ = true;
  queue().schedule_in(tx_busy_until_ - queue().now(), [this] {
    drain_armed_ = false;
    if (queue().now() < tx_busy_until_) {
      // More bytes entered the FIFO since this was armed: chase the new
      // drain instant (one re-arm per extension, not one event per byte).
      arm_drain_event();
      return;
    }
    if (config_.tx_vector >= 0) mcu().raise_irq(config_.tx_vector);
  });
}

bool UartPeripheral::send(std::uint8_t byte) { return send(&byte, 1) == 1; }

std::size_t UartPeripheral::send(const std::uint8_t* data, std::size_t len) {
  if (!tx_ || len == 0) return 0;
  const std::size_t in_flight = tx_in_flight();
  if (in_flight >= config_.tx_fifo_depth) return 0;
  const std::size_t accepted =
      std::min(len, config_.tx_fifo_depth - in_flight);
  bytes_sent_ += accepted;
  tx_->transmit(data, accepted);
  const sim::SimTime bt = tx_->config().byte_time();
  tx_busy_until_ = std::max(tx_busy_until_, queue().now()) +
                   bt * static_cast<sim::SimTime>(accepted);
  if (tx_fifo_monitor_) {
    tx_fifo_monitor_->update(static_cast<double>(in_flight + accepted));
  }
  arm_drain_event();
  return accepted;
}

void UartPeripheral::on_rx_byte(std::uint8_t byte, sim::SimTime /*when*/) {
  if (rx_valid_) {
    ++overruns_;  // previous byte never read: hardware overrun flag
  }
  rx_data_ = byte;
  rx_valid_ = true;
  ++bytes_received_;
  if (config_.rx_vector >= 0) mcu().raise_irq(config_.rx_vector);
}

std::optional<std::uint8_t> UartPeripheral::read() {
  if (!rx_valid_) return std::nullopt;
  rx_valid_ = false;
  return rx_data_;
}

}  // namespace iecd::periph
