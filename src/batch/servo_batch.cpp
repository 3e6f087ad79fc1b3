#include "batch/servo_batch.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace iecd::batch {

namespace {

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e9));
}

#if defined(__GNUC__) || defined(__clang__)
#define IECD_RESTRICT __restrict__
#else
#define IECD_RESTRICT
#endif

/// ZohMap::step over lanes: lane l's map is coefficient k of row r at
/// phi[r][k][l], gamma_u[r][l] and gamma_tau[r][l], and each lane's
/// expression matches ZohMap::step token for token.  The state rows are
/// restrict-qualified so the loop vectorizes without alias checks.
void zoh_step_lanes(std::size_t n, const LaneVector<> (&phi)[3][3],
                    const LaneVector<> (&gamma_u)[3],
                    const LaneVector<> (&gamma_tau)[3],
                    const double* IECD_RESTRICT u,
                    const double* IECD_RESTRICT tau,
                    double* IECD_RESTRICT x0, double* IECD_RESTRICT x1,
                    double* IECD_RESTRICT x2) {
  for (std::size_t l = 0; l < n; ++l) {
    const double y0 = x0[l], y1 = x1[l], y2 = x2[l];
    x0[l] = phi[0][0][l] * y0 + phi[0][1][l] * y1 + phi[0][2][l] * y2 +
            gamma_u[0][l] * u[l] + gamma_tau[0][l] * tau[l];
    x1[l] = phi[1][0][l] * y0 + phi[1][1][l] * y1 + phi[1][2][l] * y2 +
            gamma_u[1][l] * u[l] + gamma_tau[1][l] * tau[l];
    x2[l] = phi[2][0][l] * y0 + phi[2][1][l] * y1 + phi[2][2][l] * y2 +
            gamma_u[2][l] * u[l] + gamma_tau[2][l] * tau[l];
  }
}

}  // namespace

ServoBatch::ServoBatch(ServoBatchConfig config,
                       std::span<const ServoLane> lanes)
    : config_(config), width_(lanes.size()) {
  base_period_ns_ = to_ns(config_.period_s);
  base_period_ = static_cast<double>(base_period_ns_) * 1e-9;
  cpr_ = static_cast<double>(config_.encoder_lines * 4);

  const std::size_t w = width_;
  auto fill = [w](LaneVector<>& v, double value = 0.0) {
    v.assign(w, value);
  };
  fill(sp_);
  fill(sp_time_);
  fill(stop_);
  fill(supply_);
  for (int r = 0; r < 3; ++r) {
    for (auto& row : phi_[r]) fill(row);
    fill(gamma_u_[r]);
    fill(gamma_tau_[r]);
  }
  load_.resize(w);
  pi_.reserve(w);
  fill(cur_);
  fill(omega_);
  fill(theta_);
  fill(cnt_);
  fill(sat_);
  fill(duty_);
  fill(volt_);
  fill(tau_);
  active_.assign(w, 1);
  faulted_.assign(w, 0);
  remaining_ = w;
  lane_samples_.assign(w, 0);

  double stop_max = 0.0;
  for (std::size_t l = 0; l < w; ++l) {
    const ServoLane& lane = lanes[l];
    sp_[l] = lane.setpoint;
    sp_time_[l] = lane.setpoint_time;
    pi_.emplace_back(SpeedPiParams{lane.kp, lane.ki, config_.period_s,
                                   config_.encoder_lines,
                                   config_.speed_filter_taps});
    stop_[l] = lane.duration_s > 0.0 ? lane.duration_s : config_.duration_s;
    stop_max = std::max(stop_max, stop_[l]);
    supply_[l] = lane.motor.supply_voltage;
    // The map DcMotorBlock builds for the engine's base period.
    const plant::ZohMap map = plant::zoh_map(lane.motor, base_period_);
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) phi_[r][c][l] = map.phi[r][c];
      gamma_u_[r][l] = map.gamma_u[r];
      gamma_tau_[r][l] = map.gamma_tau[r];
    }
    load_[l] = lane.load;
    if (load_[l]) any_load_ = true;
  }

  // Reserve the recording arrays for the full run (the engine's stop test
  // decides the exact major count; +2 covers the boundary).
  std::size_t majors = 0;
  while (static_cast<double>(majors) * base_period_ * 1.0 < stop_max &&
         majors < (1u << 30)) {
    ++majors;
  }
  majors += 2;
  times_.reserve(majors);
  speed_hist_.reserve(majors * w);
  duty_hist_.reserve(majors * w);
}

bool ServoBatch::step() {
  if (remaining_ == 0) return false;
  const double t = static_cast<double>(major_) *
                   static_cast<double>(base_period_ns_) * 1e-9;
  // Engine stop test, per lane: a lane whose stop time arrived finishes
  // early and is masked out of the bookkeeping; the instruction stream
  // keeps full width.
  for (std::size_t l = 0; l < width_; ++l) {
    if (active_[l] && t >= stop_[l] - 1e-12) {
      active_[l] = 0;
      --remaining_;
    }
  }
  if (remaining_ == 0) return false;
  controller_and_record(t);
  integrate(t);
  retire_nonfinite_lanes();
  ++major_;
  return true;
}

void ServoBatch::run() {
  while (step()) {
  }
}

void ServoBatch::controller_and_record(double t) {
  const std::size_t w = width_;

  // --- Output phase (major step, engine sorted order: plant outputs are
  // the current motor state; then the controller chain latches and runs).

  // Quadrature-decoder position latch (QuadDecPeBlock, MIL).
  if (config_.hw_fidelity) {
    qdec_latch_lanes(theta_, cpr_, cnt_);
  } else {
    // Ablation: exact fractional counts, no wrap, no quantization.
    for (std::size_t l = 0; l < w; ++l) {
      cnt_[l] = theta_[l] / (2.0 * std::numbers::pi) * cpr_;
    }
  }

  // Speed estimate, moving-average filter, set-point step, error sum and
  // saturated PI: one controller kernel per active lane (speed_pi.hpp).
  for (std::size_t l = 0; l < w; ++l) {
    if (!active_[l]) continue;
    pi_[l].step(cnt_[l], t >= sp_time_[l] ? sp_[l] : 0.0);
    sat_[l] = pi_[l].duty();
  }

  // Mode switch: the chart stays in "automatic" (out 1.0 >= 0.5) without
  // key events, so the PWM sees the PI output.  PWM duty latch
  // (PwmPeBlock::quantize_duty).
  if (config_.hw_fidelity) {
    pwm_latch_lanes(sat_, config_.pwm_modulo, duty_);
  } else {
    for (std::size_t l = 0; l < w; ++l) duty_[l] = sat_[l];  // ideal actuator
  }

  // Scopes (discrete, one sample per major step): speed before this
  // step's integration, duty as just computed.
  times_.push_back(t);
  speed_hist_.insert(speed_hist_.end(), omega_.begin(), omega_.end());
  duty_hist_.insert(duty_hist_.end(), duty_.begin(), duty_.end());
  for (std::size_t l = 0; l < w; ++l) {
    lane_samples_[l] += active_[l];
  }
}

void ServoBatch::integrate(double t0) {
  const std::size_t w = width_;
  // Drive gain: armature voltage = supply * duty, held over the major step
  // (the controller's output is held).
  for (std::size_t l = 0; l < w; ++l) volt_[l] = supply_[l] * duty_[l];
  // The load is read once, at the step's start, and held, as DcMotorBlock
  // does; a finished or faulted lane reads none.
  if (any_load_) {
    for (std::size_t l = 0; l < w; ++l) {
      tau_[l] = active_[l] && load_[l] ? load_[l](t0, omega_[l]) : 0.0;
    }
  }
  zoh_step_lanes(w, phi_, gamma_u_, gamma_tau_, volt_.data(), tau_.data(),
                 cur_.data(), omega_.data(), theta_.data());
}

void ServoBatch::retire_nonfinite_lanes() {
  for (std::size_t l = 0; l < width_; ++l) {
    if (!active_[l]) continue;
    if (std::isfinite(cur_[l]) && std::isfinite(omega_[l]) &&
        std::isfinite(theta_[l])) {
      continue;
    }
    active_[l] = 0;
    faulted_[l] = 1;
    --remaining_;
  }
}

bool ServoBatch::lane_faulted(std::size_t lane) const {
  return faulted_.at(lane) != 0;
}

ServoLaneResult ServoBatch::result(std::size_t lane) const {
  if (lane >= width_) {
    throw std::out_of_range("ServoBatch::result: lane out of range");
  }
  ServoLaneResult r;
  const std::size_t n = lane_samples_[lane];
  for (std::size_t j = 0; j < n; ++j) {
    r.speed.record(times_[j], speed_hist_[j * width_ + lane]);
    r.duty.record(times_[j], duty_hist_[j * width_ + lane]);
  }
  r.metrics = model::analyze_step(r.speed, sp_[lane], sp_time_[lane]);
  r.iae = model::integral_absolute_error(r.speed, sp_[lane]);
  r.faulted = faulted_[lane] != 0;
  return r;
}

// ------------------------------------------------------------- latches

void pwm_latch_lanes(std::span<const double> ratio, std::int64_t modulo,
                     std::span<double> duty) {
  const std::size_t n = ratio.size();
  if (modulo <= 0) {
    for (std::size_t l = 0; l < n; ++l) {
      const double v = ratio[l];
      duty[l] = v < 0.0 ? 0.0 : (1.0 < v ? 1.0 : v);
    }
    return;
  }
  const double steps = static_cast<double>(modulo);
  for (std::size_t l = 0; l < n; ++l) {
    const double v = ratio[l];
    const double clamped = v < 0.0 ? 0.0 : (1.0 < v ? 1.0 : v);
    duty[l] = std::round(clamped * steps) / steps;
  }
}

void qdec_latch_lanes(std::span<const double> angle_rad, double cpr,
                      std::span<double> counts) {
  const std::size_t n = angle_rad.size();
  for (std::size_t l = 0; l < n; ++l) {
    const double c = std::floor(angle_rad[l] / (2.0 * std::numbers::pi) * cpr);
    // Guard the int64 conversion: UB for non-finite / out-of-range values
    // (the scalar block never sees them because its run has already blown
    // up; a batch retires the lane instead).
    std::int64_t wide = 0;
    if (c >= -9.2e18 && c <= 9.2e18) wide = static_cast<std::int64_t>(c);
    counts[l] = static_cast<double>(static_cast<std::int16_t>(
        static_cast<std::uint16_t>(wide & 0xFFFF)));
  }
}

std::vector<ServoLaneResult> run_servo_batch(const ServoBatchConfig& config,
                                             std::span<const ServoLane> lanes) {
  ServoBatch batch(config, lanes);
  batch.run();
  std::vector<ServoLaneResult> results;
  results.reserve(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    results.push_back(batch.result(l));
  }
  return results;
}

}  // namespace iecd::batch
