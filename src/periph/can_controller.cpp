#include "periph/can_controller.hpp"

#include <stdexcept>

namespace iecd::periph {

CanController::CanController(mcu::Mcu& mcu, CanControllerConfig config,
                             std::string name)
    : Peripheral(mcu, std::move(name)), config_(config) {}

void CanController::connect(sim::CanBus& bus) {
  if (bus_) throw std::logic_error(name() + ": already connected to a bus");
  bus_ = &bus;
  node_ = bus.attach_node(name(), [this](const sim::CanFrame& frame,
                                         sim::SimTime when) {
    on_rx(frame, when);
  });
}

void CanController::connect_external(sim::CanBus& bus,
                                     sim::CanBus::NodeId node) {
  if (bus_) throw std::logic_error(name() + ": already connected to a bus");
  bus_ = &bus;
  node_ = node;
}

bool CanController::accepts(const sim::CanFrame& frame) const {
  if (config_.acceptance_mask == 0) return true;
  return (frame.id & config_.acceptance_mask) == config_.acceptance_id;
}

bool CanController::send(const sim::CanFrame& frame) {
  if (!bus_) return false;
  const bool ok = bus_->transmit(node_, frame);
  if (ok) ++sent_;
  return ok;
}

void CanController::on_rx(const sim::CanFrame& frame, sim::SimTime) {
  if (!accepts(frame)) return;
  if (rx_valid_) ++overruns_;
  rx_frame_ = frame;
  rx_valid_ = true;
  ++received_;
  if (config_.rx_vector >= 0) mcu().raise_irq(config_.rx_vector);
}

std::optional<sim::CanFrame> CanController::read() {
  if (!rx_valid_) return std::nullopt;
  rx_valid_ = false;
  return rx_frame_;
}

}  // namespace iecd::periph
