#include "model/block.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace iecd::model {

Block::Block(std::string name, int inputs, int outputs)
    : name_(std::move(name)),
      inputs_(static_cast<std::size_t>(inputs)),
      outputs_(static_cast<std::size_t>(outputs)),
      out_types_(static_cast<std::size_t>(outputs), DataType::kDouble),
      out_fmts_(static_cast<std::size_t>(outputs)),
      in_src_(static_cast<std::size_t>(inputs), &zero_value()) {
  if (inputs < 0 || outputs < 0) {
    throw std::invalid_argument("Block: negative port count");
  }
}

Block::~Block() {
  for (int i = 0; i < input_count(); ++i) bind_input(i, nullptr, 0);
  while (!sinks_.empty()) {
    const auto [sink, port] = sinks_.back();
    sink->bind_input(port, nullptr, 0);
  }
}

const Value& Block::zero_value() {
  static const Value kZero = Value::of_double(0.0);
  return kZero;
}

void Block::bind_input(int port, Block* src, int src_port) {
  const auto p = static_cast<std::size_t>(port);
  if (const Block* old = inputs_[p].src) {
    std::erase(old->sinks_, std::pair<Block*, int>{this, port});
  }
  inputs_[p] = {src, src_port};
  in_src_[p] = src ? &src->outputs_[static_cast<std::size_t>(src_port)]
                   : &zero_value();
  if (src) src->sinks_.emplace_back(this, port);
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
  Value& slot = outputs_[static_cast<std::size_t>(port)];
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
