/// \file speed_pi.hpp
/// The servo's PI speed controller as one scalar kernel: the arithmetic of
/// the case-study controller graph (core/case_study.cpp) from the latched
/// decoder count to the saturated duty, in the engine's expression order,
/// so a run that steps it is bit-identical to the model.  Each ServoBatch
/// lane, the farm's ServoNode ISR and the CAN rig's controller node step
/// it.  Like the model's prev_cnt UnitDelay, the previous count starts at
/// 0, and the moving average divides by the samples seen until it fills.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

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
    const double speed = gain_ * std::remainder(counts - prev_counts_, 65536.0);
    double acc = speed;
    for (std::size_t k = 0; k < window_len_; ++k) acc += window_[k];
    smoothed_ = acc / static_cast<double>(window_len_ + 1);
    const double error = 0.0 + setpoint + 0.0 - smoothed_;
    const double unsat = kp_ * error + integral_ + 0.0;  // + 0.0: no D term
    duty_ = unsat < 0.0 ? 0.0 : (1.0 < unsat ? 1.0 : unsat);

    prev_counts_ = counts;
    if (!window_.empty()) {
      if (window_len_ < window_.size()) ++window_len_;
      for (std::size_t k = window_len_ - 1; k > 0; --k) {
        window_[k] = window_[k - 1];
      }
      window_[0] = speed;
    }
    const double aw = (duty_ - unsat) / std::max(kp_, 1e-9);
    integral_ += ki_ * period_s_ * (error + aw);
  }

  /// Saturated PI output in [0, 1] after the last step().
  double duty() const { return duty_; }
  /// Filtered speed estimate [rad/s] after the last step().
  double smoothed() const { return smoothed_; }
  /// Integrator state after the last step().
  double integral() const { return integral_; }

 private:
  double kp_;
  double ki_;
  double period_s_;
  double gain_;
  double prev_counts_ = 0.0;
  std::vector<double> window_;  ///< speed_filter_taps - 1 past samples
  std::size_t window_len_ = 0;
  double smoothed_ = 0.0;
  double duty_ = 0.0;
  double integral_ = 0.0;
};

}  // namespace iecd::batch
