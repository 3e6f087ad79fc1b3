/// \file speed_pi.hpp
/// The servo's PI speed controller as one scalar step: the case-study
/// controller graph (core/case_study.cpp) from the latched decoder count to
/// the saturated duty, composed from the kernels its blocks run
/// (periph::count_delta, blocks::MovingAverage, blocks::PidLaw) in the
/// engine's expression order, so a run that steps it is bit-identical to
/// the model.  Each ServoBatch lane, the farm's ServoNode ISR and the CAN
/// rig's controller node step it.  Like the model's prev_cnt UnitDelay,
/// the previous count starts at 0.
#pragma once

#include "blocks/discrete.hpp"
#include "periph/quadrature_decoder.hpp"
#include "util/diagnostics.hpp"

namespace iecd::batch {

/// Moving-average length of the case-study speed filter: the default of
/// core::ServoConfig and ServoBatchConfig, and the filter every farm node
/// and the CAN rig's controller run.
inline constexpr int kSpeedFilterTaps = 8;

/// Controller parameters, named as in core::ServoConfig.
struct SpeedPiParams {
  double kp = 0.0;
  double ki = 0.0;
  double period_s = 0.0;  ///< period the speed estimate and integrator assume
  int encoder_lines = 0;
  int speed_filter_taps = kSpeedFilterTaps;
};

/// kp and ki finite, period_s positive and finite, encoder_lines > 0,
/// speed_filter_taps >= 1.  Components are the bare field names.
util::DiagnosticList validate(const SpeedPiParams& params);

class SpeedPi {
 public:
  /// Throws std::invalid_argument when validate(params) reports an error.
  explicit SpeedPi(const SpeedPiParams& params);

  /// One control sample on the latched decoder \p counts: the output phase
  /// (wrapped count difference, moving average, "++-" error sum with a zero
  /// keyboard offset, PI clamped to [0, 1]), then the update phase (count
  /// delay, window push, integrator with back-calculation anti-windup).
  void step(double counts, double setpoint) {
    const double speed = gain_ * periph::count_delta(counts, prev_counts_);
    smoothed_ = filter_.output(speed);
    const double error = 0.0 + setpoint + 0.0 - smoothed_;
    pi_.output(error, period_s_);

    prev_counts_ = counts;
    filter_.update(speed);
    pi_.update(error, period_s_);
  }

  /// Saturated PI output in [0, 1] after the last step().
  double duty() const { return pi_.last_output(); }
  /// Filtered speed estimate [rad/s] after the last step().
  double smoothed() const { return smoothed_; }
  /// Integrator state after the last step().
  double integral() const { return pi_.integral(); }

 private:
  double period_s_;
  double gain_;
  double prev_counts_ = 0.0;
  double smoothed_ = 0.0;
  blocks::MovingAverage filter_;
  blocks::PidLaw pi_;
};

}  // namespace iecd::batch
