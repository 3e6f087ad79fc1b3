/// \file servo_batch.hpp
/// Lane-batched MIL execution of the servo case study: N independent runs
/// of the closed loop ServoSystem::run_mil() simulates, advanced in
/// lockstep on one major-step grid.  A lane is one run.  Each major step
/// loops over the active lanes and steps each through the scalar kernels
/// the model path runs: the quadrature-decoder latch
/// (periph::angle_to_counts), the speed-PI controller (SpeedPi), the PWM
/// duty latch (periph::quantize_duty), the two scopes (model::SampleLog),
/// one load read and the motor's exact zero-order-hold step
/// (plant::ZohMap::step).
///
/// Determinism contract (locked by tests/batch_test.cpp): every lane is
/// bit-identical to the scalar engine running the same configuration.
/// ServoBatch keeps the engine's schedule — the major-step time grid
/// double(k) * double(period_ns) * 1e-9, the stop test t >= stop - 1e-12,
/// the phase order, the mode switch's "automatic" branch and the motor map
/// built for that period — and leaves the arithmetic to the kernels above,
/// so batch width, lane position and remainder grouping never change a
/// trajectory, a metric, or a downstream evidence artifact.  Lanes never
/// interact: a lane that finished or faulted is skipped.
///
/// Scope: the MIL loop with no operator key events (the stimulus
/// run_mil() drives: mode chart in "automatic", keyboard set-point offset
/// 0).  Fixed-point configurations are out of scope — use the scalar
/// engine for those.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "batch/speed_pi.hpp"
#include "model/logging.hpp"
#include "model/metrics.hpp"
#include "plant/dc_motor.hpp"

namespace iecd::batch {

/// Lane-uniform configuration: the schedule and hardware quantities the
/// engine derives once per model rather than once per run.  Mirrors the
/// corresponding core::ServoConfig fields.
struct ServoBatchConfig {
  double period_s = 0.001;   ///< control (sample) period
  double duration_s = 1.0;   ///< default stop time (lanes may override)
  int encoder_lines = 100;
  int speed_filter_taps = kSpeedFilterTaps;
  /// PWM counter modulo.  0 = clamp-only pass-through (a bean that never
  /// solved its timing).  For parity with ServoSystem::run_mil pass
  /// core::pwm_modulo(config), the value the servo's PWM bean solves
  /// (3000 for the default configuration).
  std::int64_t pwm_modulo = 0;
  /// PE-block hardware fidelity (core::ServoConfig::mil_hw_fidelity):
  /// false = ideal pass-through decoder/actuator ablation.
  bool hw_fidelity = true;
};

/// Per-lane scenario parameters: what a sweep or fault campaign varies
/// from run to run.
struct ServoLane {
  double setpoint = 100.0;      ///< speed set-point [rad/s]
  double setpoint_time = 0.05;  ///< step instant [s]
  double kp = 0.004;
  double ki = 0.12;
  /// Per-lane stop time; 0 = ServoBatchConfig::duration_s.  A lane whose
  /// stop time passes finishes early while the rest of the batch keeps
  /// stepping.
  double duration_s = 0.0;
  plant::DcMotorParams motor;
  /// Optional load-torque disturbance (fault campaigns); must be pure in
  /// (t, omega) — e.g. fault::make_load_torque's pre-drawn pulse schedule.
  /// Read once per major step, at its start, and held over it, as
  /// DcMotorBlock does.
  plant::LoadTorque load;
};

/// Extracted per-lane results, same shape as ServoSystem::MilResult and
/// computed with the same model/metrics.hpp functions.
struct ServoLaneResult {
  model::SampleLog speed;
  model::SampleLog duty;
  model::StepMetrics metrics;
  double iae = 0.0;
  /// True if the lane's state went non-finite (a faulted lane is retired
  /// at the end of the offending major step; its log keeps the samples
  /// recorded before the fault).  Healthy lanes are unaffected.
  bool faulted = false;
};

class ServoBatch {
 public:
  ServoBatch(ServoBatchConfig config, std::span<const ServoLane> lanes);

  std::size_t width() const { return lanes_.size(); }
  const ServoBatchConfig& config() const { return config_; }

  /// Advances every still-active lane one major step (output -> update ->
  /// exact plant step, exactly the engine's phase order).  Returns false once
  /// every lane reached its stop time.
  bool step();
  /// Steps until every lane is done.
  void run();

  /// Per-lane trajectory + metrics (call after run()).
  ServoLaneResult result(std::size_t lane) const;
  bool lane_faulted(std::size_t lane) const;

 private:
  /// One run: its scenario, controller, motor state and scopes.
  struct Lane {
    double setpoint;
    double setpoint_time;
    double stop;
    double supply;
    plant::ZohMap map;  ///< the motor over one base period
    plant::LoadTorque load;
    SpeedPi pi;
    double x[3] = {0.0, 0.0, 0.0};  ///< motor {current, omega, theta}
    model::SampleLog speed{};
    model::SampleLog duty{};
    bool active = true;  ///< below its stop time and not faulted
    bool faulted = false;
  };

  void step_lane(Lane& lane, double t);
  static ServoLaneResult lane_result(const Lane& lane, model::SampleLog speed,
                                     model::SampleLog duty);
  friend std::vector<ServoLaneResult> run_servo_batch(
      const ServoBatchConfig& config, std::span<const ServoLane> lanes);

  ServoBatchConfig config_;
  std::int64_t base_period_ns_ = 0;
  double cpr_ = 0.0;
  std::uint64_t major_ = 0;
  std::vector<Lane> lanes_;
  std::size_t remaining_ = 0;  ///< lanes still active
};

/// Convenience: construct, run and extract every lane.
std::vector<ServoLaneResult> run_servo_batch(const ServoBatchConfig& config,
                                             std::span<const ServoLane> lanes);

}  // namespace iecd::batch
