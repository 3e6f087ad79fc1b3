/// \file sources.hpp
/// Source blocks: constants and test signals.
#pragma once

#include "model/block.hpp"

namespace iecd::blocks {

using model::Block;
using model::EmitContext;
using model::SimContext;

class ConstantBlock : public Block {
 public:
  ConstantBlock(std::string name, double value);
  const char* type_name() const override { return "Constant"; }
  void output(const SimContext& ctx) override;
  bool output_is_pure() const override { return true; }
  void set_value(double v) { value_ = v; }
  double value() const { return value_; }
  mcu::OpCounts step_ops(bool fixed_point) const override;
  std::string emit_c(const EmitContext& ctx) const override;

 private:
  double value_;
};

class StepBlock : public Block {
 public:
  StepBlock(std::string name, double step_time, double before, double after);
  const char* type_name() const override { return "Step"; }
  void output(const SimContext& ctx) override;
  std::string emit_c(const EmitContext& ctx) const override;

 private:
  double step_time_, before_, after_;
};

class RampBlock : public Block {
 public:
  RampBlock(std::string name, double slope, double start_time = 0.0,
            double initial = 0.0);
  const char* type_name() const override { return "Ramp"; }
  void output(const SimContext& ctx) override;

 private:
  double slope_, start_time_, initial_;
};

class SineBlock : public Block {
 public:
  SineBlock(std::string name, double amplitude, double frequency_hz,
            double phase_rad = 0.0, double bias = 0.0);
  const char* type_name() const override { return "Sine"; }
  void output(const SimContext& ctx) override;
  mcu::OpCounts step_ops(bool fixed_point) const override;

 private:
  double amplitude_, frequency_hz_, phase_, bias_;
};

class PulseBlock : public Block {
 public:
  PulseBlock(std::string name, double period, double duty_ratio,
             double amplitude = 1.0);
  const char* type_name() const override { return "Pulse"; }
  void output(const SimContext& ctx) override;

 private:
  double period_, duty_, amplitude_;
};

}  // namespace iecd::blocks
