#include "model/subsystem.hpp"

#include <stdexcept>

namespace iecd::model {

void Inport::output(const SimContext&) {
  if (owner_) set_out_value(0, owner_->in_value(port_));
}

void Inport::append_sources(std::vector<const Block*>& into) const {
  if (!owner_ || !owner_->input_connected(port_)) return;
  const Connection& c = owner_->input(port_);
  into.push_back(c.src->port_writer(c.src_port));
}

void Outport::output(const SimContext&) {
  set_out_value(0, in_ref(0));
  if (owner_) owner_->set_out_value(port_, out(0));
}

Subsystem::Subsystem(std::string name, int inputs, int outputs)
    : Block(std::move(name), inputs, outputs), inner_(this->name() + "/inner") {}

void Subsystem::bind_ports(std::vector<Inport*> inports,
                           std::vector<Outport*> outports) {
  if (static_cast<int>(inports.size()) != input_count() ||
      static_cast<int>(outports.size()) != output_count()) {
    throw std::invalid_argument(name() +
                                ": port binding does not match port counts");
  }
  for (std::size_t i = 0; i < inports.size(); ++i) {
    inports[i]->owner_ = this;
    inports[i]->port_ = static_cast<int>(i);
  }
  for (std::size_t i = 0; i < outports.size(); ++i) {
    outports[i]->owner_ = this;
    outports[i]->port_ = static_cast<int>(i);
  }
  ports_bound_ = true;
}

const Block* Subsystem::port_writer(int port) const {
  if (spliced_interior()) {
    for (const auto& b : inner_.blocks()) {
      const auto* out = dynamic_cast<const Outport*>(b.get());
      if (out && out->owner_ == this && out->port_ == port) return out;
    }
  }
  return this;
}

void Subsystem::initialize(const SimContext& ctx) {
  if (!ports_bound_ && (input_count() > 0 || output_count() > 0)) {
    throw std::logic_error(name() + ": bind_ports() not called");
  }
  for (Block* b : inner_.sorted()) {
    // Interior blocks inherit the subsystem's resolved rate unless they
    // declared something explicit.
    if (b->sample_time().kind == SampleTime::Kind::kInherited) {
      b->set_resolved_period(resolved_period());
      b->set_resolved_continuous(resolved_continuous());
    } else if (b->sample_time().kind == SampleTime::Kind::kDiscrete) {
      b->set_resolved_period(b->sample_time().period);
      b->set_resolved_continuous(false);
    } else {
      b->set_resolved_continuous(true);
    }
    b->initialize(ctx);
  }
}

void Subsystem::output(const SimContext& ctx) {
  for (Block* b : inner_.sorted()) b->output(ctx);
}

void Subsystem::update(const SimContext& ctx) {
  for (Block* b : inner_.sorted()) b->update(ctx);
}

mcu::OpCounts Subsystem::step_ops(bool fixed_point) const {
  mcu::OpCounts total;
  for (const auto& b : inner_.blocks()) total += b->step_ops(fixed_point);
  return total;
}

std::uint32_t Subsystem::state_bytes() const {
  std::uint32_t total = 0;
  for (const auto& b : inner_.blocks()) total += b->state_bytes();
  return total;
}

FunctionCallSubsystem::FunctionCallSubsystem(std::string name, int inputs,
                                             int outputs)
    : Subsystem(std::move(name), inputs, outputs) {}

void FunctionCallSubsystem::trigger(const SimContext& ctx) {
  Subsystem::output(ctx);
  Subsystem::update(ctx);
  ++activations_;
}

void EventSource::attach(FunctionCallSubsystem& subsystem) {
  FunctionCallSubsystem* target = &subsystem;
  listeners_.push_back(
      [target](const SimContext& ctx) { target->trigger(ctx); });
}

void EventSource::attach(std::function<void(const SimContext&)> listener) {
  listeners_.push_back(std::move(listener));
}

void EventSource::fire(const SimContext& ctx) {
  for (auto& l : listeners_) l(ctx);
}

}  // namespace iecd::model
