/// \file servo_batch.hpp
/// Lane-batched MIL execution of the servo case study: N independent runs
/// of the closed loop ServoSystem::run_mil() simulates — quadrature
/// decoder latch, the speed-PI controller (one SpeedPi per lane), mode
/// switch, PWM duty latch, and the DC motor's exact zero-order-hold step —
/// advanced in lockstep with every other per-run scalar in SoA lane arrays
/// (lanes.hpp).
///
/// Determinism contract (locked by tests/batch_test.cpp): every lane is
/// bit-identical to the scalar engine running the same configuration.
/// ServoBatch replicates the engine's arithmetic expression for expression
/// — the major-step time grid double(k) * double(period_ns) * 1e-9, the
/// stop test t >= stop - 1e-12, the block evaluation formulas, and the
/// motor's plant::ZohMap built for that period and stepped by
/// ZohMap::step's expression — so batch width, lane position and remainder
/// grouping never change a trajectory, a metric, or a downstream evidence
/// artifact.  Lanes never interact: a lane that finished or faulted skips
/// its controller step and load read, and the plant step keeps full width.
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

#include "batch/lanes.hpp"
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
  /// solved its timing).  For parity with ServoSystem::run_mil read the
  /// solved value from the servo's PWM bean ("modulo" property; the
  /// constructor derives it from pwm_frequency_hz — 3000 for the default
  /// configuration).
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
  /// stop time passes is masked out (finishes early) while the rest of the
  /// batch keeps stepping.
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

  std::size_t width() const { return width_; }
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
  void controller_and_record(double t);
  void integrate(double t);
  void retire_nonfinite_lanes();

  ServoBatchConfig config_;
  std::size_t width_ = 0;
  std::int64_t base_period_ns_ = 0;
  double base_period_ = 0.0;  ///< double(base_period_ns_) * 1e-9
  double cpr_ = 0.0;
  std::uint64_t major_ = 0;

  // Per-lane scenario parameters (SoA).  The motor is its ZohMap for one
  // base period, coefficient by coefficient.
  LaneVector<> sp_, sp_time_, stop_, supply_;
  LaneVector<> phi_[3][3], gamma_u_[3], gamma_tau_[3];
  std::vector<plant::LoadTorque> load_;
  bool any_load_ = false;

  // Per-lane controller and plant state.
  std::vector<SpeedPi> pi_;
  LaneVector<> cur_, omega_, theta_;   ///< motor {i, w, theta}

  // Per-lane step scratch (SoA).
  LaneVector<> cnt_, sat_, duty_, volt_, tau_;

  // Lane masks and bookkeeping.
  std::vector<std::uint8_t> active_;   ///< still below its stop time
  std::vector<std::uint8_t> faulted_;
  std::size_t remaining_ = 0;

  // Recorded trajectories: time grid shared across lanes, values strided
  // by width (speed_hist_[major * width + lane]).  A lane's log length is
  // the count of majors it was active for (lane_samples_).
  std::vector<double> times_;
  std::vector<double> speed_hist_, duty_hist_;
  std::vector<std::size_t> lane_samples_;
};

// ---------------------------------------------------------------- latches
// Lane kernels for the PE-block hardware latches, one call per batch
// instead of one virtual dispatch per run.  Each replicates the scalar
// expression exactly (core/pe_blocks.cpp).

/// PwmPeBlock::quantize_duty over lanes.  modulo <= 0 is the unvalidated
/// pass-through (clamp only).
void pwm_latch_lanes(std::span<const double> ratio, std::int64_t modulo,
                     std::span<double> duty);

/// QuadDecPeBlock::angle_to_counts over lanes, widened back to double (the
/// value the decoder block outputs into the diagram).  Non-finite angles
/// latch 0 instead of invoking the scalar path's undefined int64 cast; the
/// batch engine retires such lanes as faulted.
void qdec_latch_lanes(std::span<const double> angle_rad, double cpr,
                      std::span<double> counts);

/// Convenience: construct, run and extract every lane.
std::vector<ServoLaneResult> run_servo_batch(const ServoBatchConfig& config,
                                             std::span<const ServoLane> lanes);

}  // namespace iecd::batch
