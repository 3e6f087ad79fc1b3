#include "cosim/bus.hpp"

namespace iecd::cosim {

SharedCanBus::SharedCanBus(std::string name, std::uint32_t bitrate_bps)
    : name_(std::move(name)), can_(world_, bitrate_bps, name_) {}

util::DiagnosticList SharedCanBus::validate(std::uint32_t bitrate_bps,
                                            std::string field) {
  util::DiagnosticList d;
  d.require(bitrate_bps >= 1 && bitrate_bps <= 1000000, std::move(field),
            "in [1, 1000000] bit/s", bitrate_bps);
  return d;
}

sim::CanBus::NodeId SharedCanBus::attach_port(const std::string& port_name,
                                              sim::World& target_world,
                                              DeliverFn deliver) {
  const std::size_t index = ports_.size();
  ports_.push_back(Port{&target_world, std::move(deliver)});
  return can_.attach_node(port_name,
                          [this, index](const sim::CanFrame& frame,
                                        sim::SimTime when) {
                            buffered_.push_back(Buffered{index, frame, when});
                          });
}

sim::CanBus::NodeId SharedCanBus::attach_model_port(
    const std::string& port_name, DeliverFn deliver) {
  const std::size_t index = ports_.size();
  ports_.push_back(Port{nullptr, std::move(deliver)});
  return can_.attach_node(port_name,
                          [this, index](const sim::CanFrame& frame,
                                        sim::SimTime when) {
                            buffered_.push_back(Buffered{index, frame, when});
                          });
}

void SharedCanBus::attach_controller(periph::CanController& controller) {
  const sim::CanBus::NodeId node =
      attach_port(controller.name(), controller.mcu().world(),
                  [&controller](const sim::CanFrame& frame,
                                sim::SimTime when) {
                    controller.deliver(frame, when);
                  });
  controller.connect_external(can_, node);
}

void SharedCanBus::exchange() {
  // Buffered entries are in bus delivery order (one delivery event fans
  // out to all ports in attach order): re-scheduling preserves that order
  // per destination world, and FIFO ties at equal timestamps keep the
  // destination's execution order deterministic.
  for (const Buffered& b : buffered_) {
    Port& port = ports_[b.port];
    if (port.world != nullptr) {
      // Deliveries fire only at negotiated boundaries, so every
      // destination world's clock is <= b.when here.
      port.world->queue().schedule_at(
          b.when, [fn = &port.deliver, frame = b.frame, when = b.when] {
            (*fn)(frame, when);
          });
    } else {
      port.deliver(b.frame, b.when);
    }
  }
  buffered_.clear();
}

}  // namespace iecd::cosim
