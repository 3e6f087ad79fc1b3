#include "blocks/discrete.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/strings.hpp"

namespace iecd::blocks {

// ------------------------------------------------------------- UnitDelay

UnitDelayBlock::UnitDelayBlock(std::string name, double initial)
    : Block(std::move(name), 1, 1), initial_(initial) {}

void UnitDelayBlock::initialize(const SimContext&) {
  state_ = initial_;
  set_out(0, state_);
}

void UnitDelayBlock::output(const SimContext&) { set_out(0, state_); }

void UnitDelayBlock::update(const SimContext&) { state_ = in(0); }

std::uint32_t UnitDelayBlock::state_bytes() const {
  return model::storage_bytes(output_type(0));
}

std::string UnitDelayBlock::emit_c(const EmitContext& ctx) const {
  return util::format("%s = %sstate;  /* UnitDelay %s */\n",
                      ctx.outputs[0].c_str(), ctx.state_prefix.c_str(),
                      name().c_str());
}

std::string UnitDelayBlock::emit_c_update(const EmitContext& ctx) const {
  return util::format("%sstate = %s;  /* UnitDelay %s (update) */\n",
                      ctx.state_prefix.c_str(), ctx.inputs[0].c_str(),
                      name().c_str());
}

// ---------------------------------------------------- DiscreteIntegrator

DiscreteIntegratorBlock::DiscreteIntegratorBlock(std::string name, double gain,
                                                 IntegrationMethod method,
                                                 double initial)
    : Block(std::move(name), 1, 1),
      gain_(gain),
      method_(method),
      initial_(initial) {}

void DiscreteIntegratorBlock::set_limits(double lower, double upper) {
  if (!(upper > lower)) {
    throw std::invalid_argument(name() + ": upper must exceed lower");
  }
  limited_ = true;
  lower_ = lower;
  upper_ = upper;
}

double DiscreteIntegratorBlock::clamp(double v) const {
  return limited_ ? std::clamp(v, lower_, upper_) : v;
}

void DiscreteIntegratorBlock::initialize(const SimContext&) {
  state_ = clamp(initial_);
  prev_input_ = 0.0;
  set_out(0, state_);
}

void DiscreteIntegratorBlock::output(const SimContext& ctx) {
  if (ctx.minor) {
    set_out(0, out(0).as_double());
    return;
  }
  const double T = resolved_period() > 0 ? resolved_period() : ctx.dt;
  switch (method_) {
    case IntegrationMethod::kForwardEuler:
      set_out(0, clamp(state_));
      break;
    case IntegrationMethod::kBackwardEuler:
      set_out(0, clamp(state_ + gain_ * T * in(0)));
      break;
    case IntegrationMethod::kTrapezoidal:
      set_out(0, clamp(state_ + gain_ * T * 0.5 * (in(0) + prev_input_)));
      break;
  }
}

void DiscreteIntegratorBlock::update(const SimContext& ctx) {
  const double T = resolved_period() > 0 ? resolved_period() : ctx.dt;
  const double u = in(0);
  switch (method_) {
    case IntegrationMethod::kForwardEuler:
      state_ = clamp(state_ + gain_ * T * u);
      break;
    case IntegrationMethod::kBackwardEuler:
      state_ = clamp(state_ + gain_ * T * u);
      break;
    case IntegrationMethod::kTrapezoidal:
      state_ = clamp(state_ + gain_ * T * 0.5 * (u + prev_input_));
      break;
  }
  prev_input_ = u;
}

mcu::OpCounts DiscreteIntegratorBlock::step_ops(bool fixed_point) const {
  mcu::OpCounts ops;
  if (fixed_point) {
    ops.mul16 = 1;
    ops.alu16 = 3;  // add + 2 clamp compares
    ops.alu32 = 1;  // wide accumulator
  } else {
    ops.fmul = 1;
    ops.fadd = 2;
  }
  ops.mem = 3;
  ops.branch = 1;
  return ops;
}

std::string DiscreteIntegratorBlock::emit_c(const EmitContext& ctx) const {
  return util::format("%s = %sacc;  /* DiscreteIntegrator %s */\n",
                      ctx.outputs[0].c_str(), ctx.state_prefix.c_str(),
                      name().c_str());
}

std::string DiscreteIntegratorBlock::emit_c_update(
    const EmitContext& ctx) const {
  return util::format("%sacc += %.17g * %s;  /* DiscreteIntegrator %s */\n",
                      ctx.state_prefix.c_str(), gain_, ctx.inputs[0].c_str(),
                      name().c_str());
}

// --------------------------------------------------- DiscreteDerivative

DiscreteDerivativeBlock::DiscreteDerivativeBlock(std::string name, double gain)
    : Block(std::move(name), 1, 1), gain_(gain) {}

void DiscreteDerivativeBlock::initialize(const SimContext&) {
  prev_ = 0.0;
  held_ = 0.0;
}

void DiscreteDerivativeBlock::output(const SimContext& ctx) {
  if (ctx.minor) {
    set_out(0, held_);
    return;
  }
  const double T = resolved_period() > 0 ? resolved_period() : ctx.dt;
  held_ = gain_ * (in(0) - prev_) / T;
  set_out(0, held_);
}

void DiscreteDerivativeBlock::update(const SimContext&) { prev_ = in(0); }

// --------------------------------------------------- DiscreteTransferFn

DiscreteTransferFnBlock::DiscreteTransferFnBlock(std::string name,
                                                 std::vector<double> num,
                                                 std::vector<double> den)
    : Block(std::move(name), 1, 1), num_(std::move(num)), den_(std::move(den)) {
  if (den_.empty() || den_[0] == 0.0) {
    throw std::invalid_argument(this->name() +
                                ": denominator needs a nonzero leading term");
  }
  if (num_.size() > den_.size()) {
    throw std::invalid_argument(this->name() + ": improper transfer function");
  }
  // Normalize so den[0] == 1.
  const double a0 = den_[0];
  for (auto& c : den_) c /= a0;
  for (auto& c : num_) c /= a0;
  num_.resize(den_.size(), 0.0);
}

void DiscreteTransferFnBlock::initialize(const SimContext&) {
  state_.assign(den_.size() > 1 ? den_.size() - 1 : 0, 0.0);
  pending_out_ = 0.0;
}

void DiscreteTransferFnBlock::output(const SimContext& ctx) {
  if (ctx.minor) {
    set_out(0, out(0).as_double());
    return;
  }
  const double u = in(0);
  const double y = num_[0] * u + (state_.empty() ? 0.0 : state_[0]);
  pending_out_ = y;
  set_out(0, y);
}

void DiscreteTransferFnBlock::update(const SimContext&) {
  // Direct form II transposed state update.
  const double u = in(0);
  const double y = pending_out_;
  for (std::size_t i = 0; i + 1 < state_.size(); ++i) {
    state_[i] = state_[i + 1] + num_[i + 1] * u - den_[i + 1] * y;
  }
  if (!state_.empty()) {
    state_.back() = num_[den_.size() - 1] * u - den_[den_.size() - 1] * y;
  }
}

std::uint32_t DiscreteTransferFnBlock::state_bytes() const {
  return static_cast<std::uint32_t>(state_.size() ? state_.size() * 4
                                                  : (den_.size() - 1) * 4);
}

mcu::OpCounts DiscreteTransferFnBlock::step_ops(bool fixed_point) const {
  mcu::OpCounts ops;
  const auto n = static_cast<std::uint32_t>(den_.size());
  if (fixed_point) {
    ops.mul16 = 2 * n;
    ops.alu16 = 2 * n;
    ops.alu32 = n;
  } else {
    ops.fmul = 2 * n;
    ops.fadd = 2 * n;
  }
  ops.mem = 3 * n;
  return ops;
}

// ------------------------------------------------------------ DiscretePID

DiscretePidBlock::DiscretePidBlock(std::string name, Gains gains,
                                   double out_min, double out_max)
    : Block(std::move(name), 1, 1), law_(gains, out_min, out_max) {}

void DiscretePidBlock::initialize(const SimContext&) {
  law_.reset();
  set_out(0, 0.0);
}

void DiscretePidBlock::output(const SimContext& ctx) {
  if (ctx.minor) {
    set_out(0, law_.last_output());
    return;
  }
  const double T = resolved_period() > 0 ? resolved_period() : ctx.dt;
  set_out(0, law_.output(in(0), T));
}

void DiscretePidBlock::update(const SimContext& ctx) {
  const double T = resolved_period() > 0 ? resolved_period() : ctx.dt;
  law_.update(in(0), T);
}

mcu::OpCounts DiscretePidBlock::step_ops(bool fixed_point) const {
  mcu::OpCounts ops;
  if (fixed_point) {
    ops.mul16 = 5;
    ops.alu16 = 8;
    ops.alu32 = 2;  // 32-bit integral accumulator
    ops.div16 = 1;  // derivative filter
  } else {
    ops.fmul = 6;
    ops.fadd = 7;
    ops.fdiv = 1;
  }
  ops.mem = 8;
  ops.branch = 2;
  return ops;
}

std::string DiscretePidBlock::emit_c(const EmitContext& ctx) const {
  const char* t = ctx.fixed_point ? "int16_T" : "real_T";
  return util::format(
      "{\n"
      "  %s e = %s;  /* DiscretePID %s */\n"
      "  %s u = %s_Kp * e + %sintegral + %s_Kd_term(e, &%sderiv);\n"
      "  %s = clamp(u, %s_MIN, %s_MAX);\n"
      "  %sintegral += %s_Ki_T * (e + (%s - u) / %s_Kp);\n"
      "}\n",
      t, ctx.inputs[0].c_str(), name().c_str(), t, name().c_str(),
      ctx.state_prefix.c_str(), name().c_str(), ctx.state_prefix.c_str(),
      ctx.outputs[0].c_str(), name().c_str(), name().c_str(),
      ctx.state_prefix.c_str(), name().c_str(), ctx.outputs[0].c_str(),
      name().c_str());
}

// --------------------------------------------------------- MovingAverage

MovingAverageBlock::MovingAverageBlock(std::string name, int taps)
    : Block(std::move(name), 1, 1), average_(taps) {}

void MovingAverageBlock::initialize(const SimContext&) {
  average_.reset();
  pending_ = 0.0;
}

void MovingAverageBlock::output(const SimContext& ctx) {
  if (ctx.minor) {
    set_out(0, out(0).as_double());
    return;
  }
  pending_ = in(0);
  set_out(0, average_.output(pending_));
}

void MovingAverageBlock::update(const SimContext&) {
  average_.update(pending_);
}

std::uint32_t MovingAverageBlock::state_bytes() const {
  return static_cast<std::uint32_t>(average_.taps()) *
         model::storage_bytes(output_type(0));
}

mcu::OpCounts MovingAverageBlock::step_ops(bool fixed_point) const {
  mcu::OpCounts ops;
  const auto n = static_cast<std::uint32_t>(average_.taps());
  if (fixed_point) {
    ops.alu16 = n;
    ops.alu32 = n;
    ops.div16 = 1;
  } else {
    ops.fadd = n;
    ops.fdiv = 1;
  }
  ops.mem = 2 * n;
  return ops;
}

}  // namespace iecd::blocks
