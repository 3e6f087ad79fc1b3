/// \file model.hpp
/// The block-diagram graph: owns blocks, records connections, computes the
/// data-flow execution order (topological over direct-feedthrough edges)
/// and detects algebraic loops — the consistency layer Simulink provides
/// before any simulation or code generation can run.
///
/// Signals: every block output lives in its block, and connect() points
/// the consumer's input straight at it, so an input read is one load
/// whichever model owns the driver.  Removing a block points the inputs it
/// drove back at the shared zero.  Any graph edit (add/connect/remove)
/// bumps order_epoch(), letting engines refresh their cached dispatch
/// lists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/block.hpp"
#include "util/diagnostics.hpp"

namespace iecd::model {

class Model {
 public:
  explicit Model(std::string name = "model");

  const std::string& name() const { return name_; }

  /// Adds a block; instance names must be unique within the model.
  template <typename T, typename... Args>
  T& add(std::string block_name, Args&&... args) {
    ensure_unique(block_name);
    auto block =
        std::make_unique<T>(std::move(block_name), std::forward<Args>(args)...);
    T& ref = *block;
    blocks_.push_back(std::move(block));
    invalidate();
    return ref;
  }

  /// Connects src.out[src_port] -> dst.in[dst_port].  An input accepts only
  /// one driver; reconnecting replaces it.  \p src may belong to another
  /// model.
  void connect(Block& src, int src_port, Block& dst, int dst_port);

  Block* find(const std::string& block_name);
  const Block* find(const std::string& block_name) const;
  bool remove(const std::string& block_name);
  bool rename(const std::string& old_name, const std::string& new_name);

  const std::vector<std::unique_ptr<Block>>& blocks() const { return blocks_; }
  std::size_t block_count() const { return blocks_.size(); }

  /// Structural checks: unconnected inputs (warning), algebraic loops
  /// (error, with the cycle spelled out), invalid sample times.
  util::DiagnosticList check() const;

  /// Execution order.  Throws std::logic_error on algebraic loops.
  const std::vector<Block*>& sorted() const;

  /// Bumped on every graph edit (add/connect/remove); engines key their
  /// cached dispatch lists on it.
  std::uint64_t order_epoch() const { return order_epoch_; }

 private:
  void ensure_unique(const std::string& block_name) const;
  void invalidate();
  void compute_order() const;

  std::string name_;
  std::vector<std::unique_ptr<Block>> blocks_;
  mutable std::vector<Block*> order_;
  mutable bool order_valid_ = false;
  std::uint64_t order_epoch_ = 0;
};

}  // namespace iecd::model
