/// \file math_blocks.hpp
/// Arithmetic blocks: gain, sum, product, abs, min/max.
#pragma once

#include <string>

#include "model/block.hpp"

namespace iecd::blocks {

using model::Block;
using model::EmitContext;
using model::SimContext;

class GainBlock : public Block {
 public:
  GainBlock(std::string name, double gain);
  const char* type_name() const override { return "Gain"; }
  void output(const SimContext& ctx) override;
  bool output_is_pure() const override { return true; }
  double gain() const { return gain_; }
  void set_gain(double g) { gain_ = g; }
  mcu::OpCounts step_ops(bool fixed_point) const override;
  std::string emit_c(const EmitContext& ctx) const override;

 private:
  double gain_;
};

/// N-ary add/subtract; \p signs is one '+'/'-' per input, e.g. "+-".
class SumBlock : public Block {
 public:
  SumBlock(std::string name, std::string signs);
  const char* type_name() const override { return "Sum"; }
  void output(const SimContext& ctx) override;
  bool output_is_pure() const override { return true; }
  mcu::OpCounts step_ops(bool fixed_point) const override;
  std::string emit_c(const EmitContext& ctx) const override;

 private:
  std::string signs_;
};

class ProductBlock : public Block {
 public:
  ProductBlock(std::string name, int inputs = 2);
  const char* type_name() const override { return "Product"; }
  void output(const SimContext& ctx) override;
  bool output_is_pure() const override { return true; }
  mcu::OpCounts step_ops(bool fixed_point) const override;
  std::string emit_c(const EmitContext& ctx) const override;
};

class AbsBlock : public Block {
 public:
  explicit AbsBlock(std::string name);
  const char* type_name() const override { return "Abs"; }
  void output(const SimContext& ctx) override;
  std::string emit_c(const EmitContext& ctx) const override;
};

class MinMaxBlock : public Block {
 public:
  MinMaxBlock(std::string name, bool is_max, int inputs = 2);
  const char* type_name() const override { return is_max_ ? "Max" : "Min"; }
  void output(const SimContext& ctx) override;

 private:
  bool is_max_;
};

}  // namespace iecd::blocks
