#include "batch/servo_batch.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "periph/pwm.hpp"
#include "periph/quadrature_decoder.hpp"

namespace iecd::batch {

namespace {

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e9));
}

/// Samples a lane records: the engine's stop test admits ceil(stop /
/// period) major steps, and +2 covers the boundary.  Past 2^20 samples the
/// logs grow on demand.
std::size_t log_capacity(double stop, double period) {
  const double n = std::ceil(stop / period) + 2.0;
  if (!(n > 0.0)) return 0;
  return static_cast<std::size_t>(std::min(n, 1048576.0));
}

}  // namespace

ServoBatch::ServoBatch(ServoBatchConfig config,
                       std::span<const ServoLane> lanes)
    : config_(config) {
  base_period_ns_ = to_ns(config_.period_s);
  const double base_period = static_cast<double>(base_period_ns_) * 1e-9;
  cpr_ = static_cast<double>(config_.encoder_lines * 4);

  lanes_.reserve(lanes.size());
  for (const ServoLane& in : lanes) {
    const double stop =
        in.duration_s > 0.0 ? in.duration_s : config_.duration_s;
    // The map DcMotorBlock builds for the engine's base period.
    Lane& lane = lanes_.emplace_back(
        Lane{in.setpoint, in.setpoint_time, stop, in.motor.supply_voltage,
             plant::zoh_map(in.motor, base_period), in.load,
             SpeedPi({in.kp, in.ki, config_.period_s, config_.encoder_lines,
                      config_.speed_filter_taps})});
    const std::size_t samples = log_capacity(stop, base_period);
    lane.speed.reserve(samples);
    lane.duty.reserve(samples);
  }
  remaining_ = lanes_.size();
}

bool ServoBatch::step() {
  if (remaining_ == 0) return false;
  const double t = static_cast<double>(major_) *
                   static_cast<double>(base_period_ns_) * 1e-9;
  bool stepped = false;
  for (Lane& lane : lanes_) {
    if (!lane.active) continue;
    // Engine stop test, per lane: a lane whose stop time arrived finishes
    // early while the rest keep stepping.
    if (t >= lane.stop - 1e-12) {
      lane.active = false;
      --remaining_;
      continue;
    }
    step_lane(lane, t);
    stepped = true;
  }
  if (!stepped) return false;
  ++major_;
  return true;
}

void ServoBatch::run() {
  while (step()) {
  }
}

void ServoBatch::step_lane(Lane& lane, double t) {
  // Output phase, in the engine's sorted order: the decoder latches the
  // shaft angle, the controller runs, the mode switch passes the PI output
  // ("automatic" without key events) and the PWM latches the duty.  With
  // hardware fidelity off both latches are the ideal pass-through ablation.
  const bool hw = config_.hw_fidelity;
  const double counts =
      hw ? static_cast<double>(periph::angle_to_counts(lane.x[2], cpr_))
         : lane.x[2] / (2.0 * std::numbers::pi) * cpr_;
  lane.pi.step(counts, t >= lane.setpoint_time ? lane.setpoint : 0.0);
  const double duty = hw ? periph::quantize_duty(lane.pi.duty(),
                                                 config_.pwm_modulo)
                         : lane.pi.duty();

  // Scopes (one sample per major step): speed before this step's plant
  // step, duty as just latched.
  lane.speed.record(t, lane.x[1]);
  lane.duty.record(t, duty);

  // The drive and the load are held over the step; the load is read once,
  // at the step's start, as DcMotorBlock does.
  const double tau = lane.load ? lane.load(t, lane.x[1]) : 0.0;
  lane.map.step(lane.x, lane.supply * duty, tau);

  // A lane whose state went non-finite is retired as faulted; its logs
  // keep the samples recorded up to here.
  if (!std::isfinite(lane.x[0]) || !std::isfinite(lane.x[1]) ||
      !std::isfinite(lane.x[2])) {
    lane.active = false;
    lane.faulted = true;
    --remaining_;
  }
}

bool ServoBatch::lane_faulted(std::size_t lane) const {
  return lanes_.at(lane).faulted;
}

ServoLaneResult ServoBatch::lane_result(const Lane& lane,
                                        model::SampleLog speed,
                                        model::SampleLog duty) {
  ServoLaneResult r;
  r.speed = std::move(speed);
  r.duty = std::move(duty);
  r.metrics = model::analyze_step(r.speed, lane.setpoint, lane.setpoint_time);
  r.iae = model::integral_absolute_error(r.speed, lane.setpoint);
  r.faulted = lane.faulted;
  return r;
}

ServoLaneResult ServoBatch::result(std::size_t lane) const {
  if (lane >= lanes_.size()) {
    throw std::out_of_range("ServoBatch::result: lane out of range");
  }
  const Lane& l = lanes_[lane];
  return lane_result(l, l.speed, l.duty);
}

std::vector<ServoLaneResult> run_servo_batch(const ServoBatchConfig& config,
                                             std::span<const ServoLane> lanes) {
  ServoBatch batch(config, lanes);
  batch.run();
  std::vector<ServoLaneResult> results;
  results.reserve(batch.lanes_.size());
  for (ServoBatch::Lane& lane : batch.lanes_) {
    // The batch ends here, so each lane's logs move into its result.
    results.push_back(ServoBatch::lane_result(lane, std::move(lane.speed),
                                              std::move(lane.duty)));
  }
  return results;
}

}  // namespace iecd::batch
