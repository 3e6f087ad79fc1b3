#include "batch/servo_batch.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/rk4.hpp"

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

/// Batched DcMotorDynamics::derivatives — the expressions match
/// plant/dc_motor.cpp token for token, evaluated lane-adjacent so the
/// compiler turns them into packed arithmetic.  W > 0 instantiates an
/// explicit compile-time width (the common SIMD group sizes get fully
/// unrolled vector bodies with no trip-count checks); W == 0 is the
/// portable any-width fallback the remainder group uses.
template <int W>
void motor_derivs(std::size_t n, const double* IECD_RESTRICT yi,
                  const double* IECD_RESTRICT yw,
                  const double* IECD_RESTRICT volt,
                  const double* IECD_RESTRICT tau,
                  const double* IECD_RESTRICT res,
                  const double* IECD_RESTRICT ind,
                  const double* IECD_RESTRICT kt,
                  const double* IECD_RESTRICT ke,
                  const double* IECD_RESTRICT inertia,
                  const double* IECD_RESTRICT damping,
                  double* IECD_RESTRICT di, double* IECD_RESTRICT dw,
                  double* IECD_RESTRICT dth) {
  const std::size_t count = W > 0 ? static_cast<std::size_t>(W) : n;
  for (std::size_t l = 0; l < count; ++l) {
    di[l] = (volt[l] - res[l] * yi[l] - ke[l] * yw[l]) / ind[l];
    dw[l] = (kt[l] * yi[l] - damping[l] * yw[l] - tau[l]) / inertia[l];
    dth[l] = yw[l];
  }
}

}  // namespace

ServoBatch::ServoBatch(ServoBatchConfig config,
                       std::span<const ServoLane> lanes)
    : config_(config), width_(lanes.size()) {
  if (config_.minor_steps < 1) {
    throw std::invalid_argument("ServoBatch: minor_steps >= 1");
  }
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
  fill(res_);
  fill(ind_);
  fill(kt_);
  fill(ke_);
  fill(inertia_);
  fill(damping_);
  fill(supply_);
  load_.resize(w);
  pi_.reserve(w);
  fill(cur_);
  fill(omega_);
  fill(theta_);
  fill(cnt_);
  fill(sat_);
  fill(duty_);
  fill(volt_);
  fill(yi_);
  fill(yw_);
  fill(yt_);
  fill(tau_);
  for (int s = 0; s < 3; ++s) {
    fill(k1_[s]);
    fill(k2_[s]);
    fill(k3_[s]);
    fill(k4_[s]);
  }
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
    res_[l] = lane.motor.resistance;
    ind_[l] = lane.motor.inductance;
    kt_[l] = lane.motor.kt;
    ke_[l] = lane.motor.ke;
    inertia_[l] = lane.motor.inertia;
    damping_[l] = lane.motor.damping;
    supply_[l] = lane.motor.supply_voltage;
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
  // saturated PI: one controller kernel per lane (speed_pi.hpp).
  for (std::size_t l = 0; l < w; ++l) {
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
  // Drive gain: armature voltage = supply * duty, constant over the major
  // step (the controller's output is held).
  for (std::size_t l = 0; l < w; ++l) volt_[l] = supply_[l] * duty_[l];

  const double h =
      base_period_ / static_cast<double>(config_.minor_steps);

  auto eval = [&](double ts, const LaneVector<>& yi, const LaneVector<>& yw,
                  LaneVector<>* k) {
    if (any_load_) {
      for (std::size_t l = 0; l < w; ++l) {
        tau_[l] = load_[l] ? load_[l](ts, yw[l]) : 0.0;
      }
    }
    const double* pi = yi.data();
    const double* pw = yw.data();
    // Explicit-width kernels for the common SIMD group sizes; any other
    // width takes the portable runtime-count loop.
    auto call = [&](auto width_tag) {
      motor_derivs<decltype(width_tag)::value>(
          w, pi, pw, volt_.data(), tau_.data(), res_.data(), ind_.data(),
          kt_.data(), ke_.data(), inertia_.data(), damping_.data(),
          k[0].data(), k[1].data(), k[2].data());
    };
    switch (w) {
      case 4: call(std::integral_constant<int, 4>{}); break;
      case 8: call(std::integral_constant<int, 8>{}); break;
      case 16: call(std::integral_constant<int, 16>{}); break;
      default: call(std::integral_constant<int, 0>{}); break;
    }
  };

  for (int m = 0; m < config_.minor_steps; ++m) {
    const double t = t0 + h * m;
    // Classic RK4 over the SoA lanes, via the shared stage/combination
    // loops (util/rk4.hpp) — identical expressions to the scalar engine.
    eval(t, cur_, omega_, k1_);
    util::rk4_stage(cur_, k1_[0], 0.5 * h, yi_);
    util::rk4_stage(omega_, k1_[1], 0.5 * h, yw_);
    util::rk4_stage(theta_, k1_[2], 0.5 * h, yt_);
    eval(t + 0.5 * h, yi_, yw_, k2_);
    util::rk4_stage(cur_, k2_[0], 0.5 * h, yi_);
    util::rk4_stage(omega_, k2_[1], 0.5 * h, yw_);
    util::rk4_stage(theta_, k2_[2], 0.5 * h, yt_);
    eval(t + 0.5 * h, yi_, yw_, k3_);
    util::rk4_stage(cur_, k3_[0], h, yi_);
    util::rk4_stage(omega_, k3_[1], h, yw_);
    util::rk4_stage(theta_, k3_[2], h, yt_);
    eval(t + h, yi_, yw_, k4_);
    util::rk4_combine(cur_, h, k1_[0], k2_[0], k3_[0], k4_[0]);
    util::rk4_combine(omega_, h, k1_[1], k2_[1], k3_[1], k4_[1]);
    util::rk4_combine(theta_, h, k1_[2], k2_[2], k3_[2], k4_[2]);
  }
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
