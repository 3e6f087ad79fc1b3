#include "model/block.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace iecd::model {

Block::Block(std::string name, int inputs, int outputs)
    : name_(std::move(name)),
      inputs_(static_cast<std::size_t>(inputs)),
      outputs_(static_cast<std::size_t>(outputs)),
      out_types_(static_cast<std::size_t>(outputs), DataType::kDouble),
      out_fmts_(static_cast<std::size_t>(outputs)) {
  if (inputs < 0 || outputs < 0) {
    throw std::invalid_argument("Block: negative port count");
  }
  slots_ = outputs_.data();
}

const Value& Block::zero_value() {
  static const Value kZero = Value::of_double(0.0);
  return kZero;
}

const Value& Block::in_walk(int port) const {
  const Connection& c = inputs_.at(static_cast<std::size_t>(port));
  if (!c.src) return zero_value();
  return c.src->out(c.src_port);
}

void Block::throw_bad_port(int port, bool output) const {
  throw std::out_of_range(name_ + ": no " +
                          (output ? std::string("output") : "input") +
                          " port " + std::to_string(port));
}

void Block::set_output_type(int port, DataType type,
                            std::optional<fixpt::FixedFormat> fmt) {
  if (type == DataType::kFixed && !fmt) {
    throw std::invalid_argument(name_ + ": fixed output needs a format");
  }
  out_types_.at(static_cast<std::size_t>(port)) = type;
  out_fmts_.at(static_cast<std::size_t>(port)) = fmt;
  // Re-quantize the current latched value so type changes apply instantly.
  Value& slot = slots_[static_cast<std::size_t>(port)];
  slot = Value::quantize(slot.as_double(), type, fmt);
}

DataType Block::output_type(int port) const {
  return out_types_.at(static_cast<std::size_t>(port));
}

const std::optional<fixpt::FixedFormat>& Block::output_format(int port) const {
  return out_fmts_.at(static_cast<std::size_t>(port));
}

void Block::initialize(const SimContext& ctx) { (void)ctx; }

void Block::append_sources(std::vector<const Block*>& into) const {
  for (const Connection& c : inputs_) {
    if (c.src) into.push_back(c.src->port_writer(c.src_port));
  }
}

bool Block::input_connected(int port) const {
  return inputs_.at(static_cast<std::size_t>(port)).src != nullptr;
}

const Block::Connection& Block::input(int port) const {
  return inputs_.at(static_cast<std::size_t>(port));
}

mcu::OpCounts Block::step_ops(bool fixed_point) const {
  // Conservative default: one ALU op + one store per output.
  mcu::OpCounts ops;
  if (fixed_point) {
    ops.alu16 = static_cast<std::uint32_t>(output_count());
  } else {
    ops.fadd = static_cast<std::uint32_t>(output_count());
  }
  ops.mem = static_cast<std::uint32_t>(output_count());
  return ops;
}

std::string Block::emit_c(const EmitContext& ctx) const {
  std::string out;
  for (std::size_t i = 0; i < ctx.outputs.size(); ++i) {
    const std::string rhs = i < ctx.inputs.size() ? ctx.inputs[i] : "0";
    out += util::format("%s = %s;  /* %s (%s) */\n", ctx.outputs[i].c_str(),
                        rhs.c_str(), name_.c_str(), type_name());
  }
  return out;
}

}  // namespace iecd::model
