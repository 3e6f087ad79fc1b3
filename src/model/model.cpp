#include "model/model.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "util/strings.hpp"

namespace iecd::model {

Model::Model(std::string name) : name_(std::move(name)) {}

void Model::ensure_unique(const std::string& block_name) const {
  if (const_cast<Model*>(this)->find(block_name)) {
    throw std::invalid_argument("Model " + name_ + ": duplicate block " +
                                block_name);
  }
}

void Model::connect(Block& src, int src_port, Block& dst, int dst_port) {
  if (src_port < 0 || src_port >= src.output_count()) {
    throw std::out_of_range(src.name() + ": no output port " +
                            std::to_string(src_port));
  }
  if (dst_port < 0 || dst_port >= dst.input_count()) {
    throw std::out_of_range(dst.name() + ": no input port " +
                            std::to_string(dst_port));
  }
  dst.bind_input(dst_port, &src, src_port);
  invalidate();
}

Block* Model::find(const std::string& block_name) {
  for (const auto& b : blocks_) {
    if (b->name() == block_name) return b.get();
  }
  return nullptr;
}

const Block* Model::find(const std::string& block_name) const {
  return const_cast<Model*>(this)->find(block_name);
}

bool Model::remove(const std::string& block_name) {
  const auto it =
      std::find_if(blocks_.begin(), blocks_.end(),
                   [&](const auto& b) { return b->name() == block_name; });
  if (it == blocks_.end()) return false;
  blocks_.erase(it);  // ~Block unbinds the inputs it drove, in any model
  invalidate();
  return true;
}

bool Model::rename(const std::string& old_name, const std::string& new_name) {
  Block* b = find(old_name);
  if (!b) return false;
  ensure_unique(new_name);
  b->rename(new_name);
  return true;
}

void Model::compute_order() const {
  // Kahn's algorithm over direct-feedthrough edges: an edge src -> dst is an
  // ordering constraint only if dst's output depends on its current inputs.
  std::map<const Block*, int> in_degree;
  std::map<const Block*, std::vector<Block*>> adjacency;
  for (const auto& b : blocks_) in_degree[b.get()] = 0;
  for (const auto& b : blocks_) {
    if (!b->has_direct_feedthrough()) continue;
    for (const auto& conn : b->inputs_) {
      if (!conn.src) continue;
      adjacency[conn.src].push_back(b.get());
      ++in_degree[b.get()];
    }
  }
  order_.clear();
  order_.reserve(blocks_.size());
  // Stable seed order = insertion order, keeping runs deterministic.
  std::vector<Block*> ready;
  for (const auto& b : blocks_) {
    if (in_degree[b.get()] == 0) ready.push_back(b.get());
  }
  std::size_t cursor = 0;
  while (cursor < ready.size()) {
    Block* b = ready[cursor++];
    order_.push_back(b);
    for (Block* next : adjacency[b]) {
      if (--in_degree[next] == 0) ready.push_back(next);
    }
  }
  if (order_.size() != blocks_.size()) {
    std::vector<std::string> loop;
    for (const auto& b : blocks_) {
      if (in_degree[b.get()] > 0) loop.push_back(b->name());
    }
    throw std::logic_error("Model " + name_ + ": algebraic loop involving " +
                           util::join(loop, " -> "));
  }
  order_valid_ = true;
}

void Model::invalidate() {
  order_valid_ = false;
  ++order_epoch_;
}

const std::vector<Block*>& Model::sorted() const {
  if (!order_valid_) compute_order();
  return order_;
}

util::DiagnosticList Model::check() const {
  util::DiagnosticList diagnostics;
  for (const auto& b : blocks_) {
    for (int i = 0; i < b->input_count(); ++i) {
      if (!b->input_connected(i)) {
        diagnostics.warning(
            name_ + "." + b->name(),
            util::format("input port %d unconnected (reads 0)", i));
      }
    }
    const SampleTime st = b->sample_time();
    if (st.kind == SampleTime::Kind::kDiscrete && !(st.period > 0)) {
      diagnostics.error(name_ + "." + b->name(),
                        "discrete sample time must have period > 0");
    }
  }
  try {
    sorted();
  } catch (const std::logic_error& e) {
    diagnostics.error(name_, e.what());
  }
  return diagnostics;
}

}  // namespace iecd::model
