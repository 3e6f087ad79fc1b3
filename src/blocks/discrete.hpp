/// \file discrete.hpp
/// Discrete-time blocks: delays, integrators, derivative, transfer
/// function, PID — the controller-side vocabulary of the case study.
/// The moving average and the PID law are also plain kernels
/// (MovingAverage, PidLaw) that batch::SpeedPi composes, so the blocks and
/// every non-graph runner share one definition of each.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "model/block.hpp"

namespace iecd::blocks {

using model::Block;
using model::EmitContext;
using model::SimContext;

class UnitDelayBlock : public Block {
 public:
  UnitDelayBlock(std::string name, double initial = 0.0);
  const char* type_name() const override { return "UnitDelay"; }
  bool has_direct_feedthrough() const override { return false; }
  void initialize(const SimContext& ctx) override;
  void output(const SimContext& ctx) override;
  void update(const SimContext& ctx) override;
  std::uint32_t state_bytes() const override;
  std::string emit_c(const EmitContext& ctx) const override;
  std::string emit_c_update(const EmitContext& ctx) const override;

 private:
  double initial_;
  double state_ = 0.0;
};

enum class IntegrationMethod { kForwardEuler, kBackwardEuler, kTrapezoidal };

class DiscreteIntegratorBlock : public Block {
 public:
  DiscreteIntegratorBlock(std::string name, double gain = 1.0,
                          IntegrationMethod method =
                              IntegrationMethod::kForwardEuler,
                          double initial = 0.0);
  const char* type_name() const override { return "DiscreteIntegrator"; }
  /// Forward Euler has no direct feedthrough; the other methods do.
  bool has_direct_feedthrough() const override {
    return method_ != IntegrationMethod::kForwardEuler;
  }
  /// Optional output saturation (anti-windup clamping).
  void set_limits(double lower, double upper);
  void initialize(const SimContext& ctx) override;
  void output(const SimContext& ctx) override;
  void update(const SimContext& ctx) override;
  std::uint32_t state_bytes() const override { return 4; }
  mcu::OpCounts step_ops(bool fixed_point) const override;
  std::string emit_c(const EmitContext& ctx) const override;
  std::string emit_c_update(const EmitContext& ctx) const override;

 private:
  double clamp(double v) const;

  double gain_;
  IntegrationMethod method_;
  double initial_;
  double state_ = 0.0;
  double prev_input_ = 0.0;
  bool limited_ = false;
  double lower_ = 0.0, upper_ = 0.0;
};

/// Filtered discrete derivative: K * (u - u_prev) / T.
class DiscreteDerivativeBlock : public Block {
 public:
  DiscreteDerivativeBlock(std::string name, double gain = 1.0);
  const char* type_name() const override { return "DiscreteDerivative"; }
  void initialize(const SimContext& ctx) override;
  void output(const SimContext& ctx) override;
  void update(const SimContext& ctx) override;
  std::uint32_t state_bytes() const override { return 4; }

 private:
  double gain_;
  double prev_ = 0.0;
  double held_ = 0.0;
};

/// Direct-form-II transposed discrete transfer function
/// H(z) = (b0 + b1 z^-1 + ...) / (1 + a1 z^-1 + ...).
class DiscreteTransferFnBlock : public Block {
 public:
  DiscreteTransferFnBlock(std::string name, std::vector<double> num,
                          std::vector<double> den);
  const char* type_name() const override { return "DiscreteTransferFn"; }
  void initialize(const SimContext& ctx) override;
  void output(const SimContext& ctx) override;
  void update(const SimContext& ctx) override;
  std::uint32_t state_bytes() const override;
  mcu::OpCounts step_ops(bool fixed_point) const override;

 private:
  std::vector<double> num_, den_;
  std::vector<double> state_;
  double pending_out_ = 0.0;
};

/// Newest-first moving average over the last \p taps samples.  Until the
/// window fills it divides by the samples seen so far.  output(in) is the
/// average including \p in; update(in) then pushes \p in.
class MovingAverage {
 public:
  /// Throws std::invalid_argument for taps < 1.
  explicit MovingAverage(int taps) {
    if (taps < 1) throw std::invalid_argument("MovingAverage: taps >= 1");
    window_.assign(static_cast<std::size_t>(taps - 1), 0.0);
  }

  int taps() const { return static_cast<int>(window_.size()) + 1; }

  double output(double in) const {
    double acc = in;
    for (std::size_t k = 0; k < len_; ++k) acc += window_[k];
    return acc / static_cast<double>(len_ + 1);
  }

  void update(double in) {
    if (window_.empty()) return;
    if (len_ < window_.size()) ++len_;
    for (std::size_t k = len_ - 1; k > 0; --k) window_[k] = window_[k - 1];
    window_[0] = in;
  }

  void reset() { len_ = 0; }

 private:
  std::vector<double> window_;  ///< taps - 1 past samples, newest first
  std::size_t len_ = 0;         ///< past samples seen, at most taps - 1
};

/// PID with a filtered derivative and back-calculation anti-windup, its
/// output clamped to [out_min, out_max].  output(e, T) is the output phase
/// of one sample of period \p T; update(e, T) then advances the
/// integrator and the derivative filter.
class PidLaw {
 public:
  struct Gains {
    double kp = 1.0;
    double ki = 0.0;
    double kd = 0.0;
    double derivative_filter = 10.0;  ///< N in the filtered derivative
  };

  /// Throws std::invalid_argument unless out_max > out_min.
  PidLaw(Gains gains, double out_min, double out_max)
      : gains_(gains), out_min_(out_min), out_max_(out_max) {
    if (!(out_max > out_min)) {
      throw std::invalid_argument("PidLaw: out_max must exceed out_min");
    }
  }

  double output(double e, double T) {
    unsat_ = gains_.kp * e + integral_ + derivative(e, T);
    sat_ = std::clamp(unsat_, out_min_, out_max_);
    return sat_;
  }

  void update(double e, double T) {
    // Back-calculation anti-windup: bleed the integrator toward the
    // saturated output when the actuator limits.
    const double aw = (sat_ - unsat_) / std::max(gains_.kp, 1e-9);
    integral_ += gains_.ki * T * (e + aw);
    if (gains_.kd > 0) deriv_state_ += T * derivative(e, T);
  }

  void reset() {
    integral_ = 0.0;
    deriv_state_ = 0.0;
    unsat_ = 0.0;
    sat_ = 0.0;
  }

  /// Saturated output of the last output() call.
  double last_output() const { return sat_; }
  double integral() const { return integral_; }

 private:
  /// Filtered derivative: d = N*(Kd*e - x); x' = d  (backward Euler).
  double derivative(double e, double T) const {
    if (!(gains_.kd > 0)) return 0.0;
    const double n = gains_.derivative_filter;
    return n * (gains_.kd * e - deriv_state_) / (1.0 + n * T);
  }

  Gains gains_;
  double out_min_, out_max_;
  double integral_ = 0.0;
  double deriv_state_ = 0.0;
  double unsat_ = 0.0, sat_ = 0.0;
};

/// Discrete PID (PidLaw) — the controller of the servo case study.
class DiscretePidBlock : public Block {
 public:
  using Gains = PidLaw::Gains;

  DiscretePidBlock(std::string name, Gains gains, double out_min,
                   double out_max);
  const char* type_name() const override { return "DiscretePID"; }
  void initialize(const SimContext& ctx) override;
  void output(const SimContext& ctx) override;
  void update(const SimContext& ctx) override;
  std::uint32_t state_bytes() const override { return 12; }
  mcu::OpCounts step_ops(bool fixed_point) const override;
  std::string emit_c(const EmitContext& ctx) const override;

 private:
  PidLaw law_;
};

/// Sliding-window moving average (MovingAverage) over the last \p taps
/// samples.
class MovingAverageBlock : public Block {
 public:
  MovingAverageBlock(std::string name, int taps);
  const char* type_name() const override { return "MovingAverage"; }
  void initialize(const SimContext& ctx) override;
  void output(const SimContext& ctx) override;
  void update(const SimContext& ctx) override;
  std::uint32_t state_bytes() const override;
  mcu::OpCounts step_ops(bool fixed_point) const override;

 private:
  MovingAverage average_;
  double pending_ = 0.0;
};

}  // namespace iecd::blocks
