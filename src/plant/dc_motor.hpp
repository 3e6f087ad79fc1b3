/// \file dc_motor.hpp
/// The case-study plant: a mechanically commutated DC motor driven by a
/// power transistor switched by PWM (paper Section 7).  Electrical and
/// mechanical dynamics:
///   L di/dt = u - R i - Ke w
///   J dw/dt = Kt i - b w - tau_load
///   dtheta/dt = w
/// Two couplings are provided: a model::Block for MIL simulation inside the
/// plant subsystem, and an event-world component (lazy RK4 integrator over
/// a ZohSignal voltage input) for HIL co-simulation against the simulated
/// PWM peripheral.  The event-world plant also samples its shaft for the
/// incremental encoder on a fixed poll grid, so the encoder costs no queue
/// events, and sizes its own RK4 step from the motor's fastest mode.
#pragma once

#include <functional>

#include "model/block.hpp"
#include "sim/world.hpp"
#include "sim/zoh_signal.hpp"

namespace iecd::plant {

struct DcMotorParams {
  double resistance = 2.0;      ///< R [ohm]
  double inductance = 2.5e-3;   ///< L [H]
  double kt = 0.05;             ///< torque constant [N m / A]
  double ke = 0.05;             ///< back-EMF constant [V s / rad]
  double inertia = 2.0e-5;      ///< J [kg m^2]
  double damping = 1.0e-5;      ///< viscous friction b [N m s / rad]
  double supply_voltage = 24.0; ///< H-bridge rail [V]
};

/// External load torque as a function of time and speed.
using LoadTorque = std::function<double(double t, double omega)>;

/// Shared dynamics: state = {current, omega, theta}.
struct DcMotorDynamics {
  DcMotorParams params;

  void derivatives(const double state[3], double voltage, double load_torque,
                   double dx[3]) const;
};

/// MIL plant block: input 0 = armature voltage [V], outputs 0..2 = speed
/// [rad/s], angle [rad], current [A].
class DcMotorBlock : public model::Block {
 public:
  DcMotorBlock(std::string name, DcMotorParams params);
  const char* type_name() const override { return "DCMotor"; }
  bool has_direct_feedthrough() const override { return false; }

  void set_load(LoadTorque load) { load_ = std::move(load); }

  void initialize(const model::SimContext& ctx) override;
  void output(const model::SimContext& ctx) override;
  int continuous_state_count() const override { return 3; }
  void read_states(std::span<double> into) const override;
  void write_states(std::span<const double> from) override;
  void derivatives(const model::SimContext& ctx,
                   std::span<double> dx) const override;

  const DcMotorParams& params() const { return dynamics_.params; }

 private:
  DcMotorDynamics dynamics_;
  LoadTorque load_;
  double state_[3] = {0, 0, 0};
};

/// Encoder poll grid: the event-world plant hands its shaft angle to its
/// sampler at every multiple of this interval.
inline constexpr sim::SimTime kPollInterval = sim::microseconds(50);

/// Classic RK4's stability limit on the negative real axis: a step h keeps
/// a decaying mode of rate |lambda| stable only while h |lambda| stays
/// within it.
inline constexpr double kRk4StabilityLimit = 2.785;

/// Magnitude of the fastest eigenvalue [1/s] of the electromechanical
/// matrix [[-R/L, -Ke/L], [Kt/J, -b/J]]: the rate an explicit integrator
/// must resolve.  It sizes DcMotorSim's step and core::validate's check of
/// the model engine's step.  NaN or inf for non-finite or zero L, J.
double fastest_mode(const DcMotorParams& params);

/// Equal RK4 steps per poll interval for DcMotorSim: the fewest that keep
/// h |lambda| within a tenth of kRk4StabilityLimit, an accuracy margin well
/// inside stability (the default motor takes one step per poll).  Throws
/// std::invalid_argument when no step of at least 1 ns qualifies, which
/// includes a non-finite fastest_mode().
int plant_steps_per_poll(const DcMotorParams& params);

/// HIL plant: lives in the co-simulation world, integrates lazily up to any
/// queried time using the PWM's zero-order-hold average output as the
/// armature voltage (duty * supply).
///
/// The trajectory is fixed by the plant alone.  Each poll interval is split
/// into plant_steps_per_poll() equal RK4 steps, and a step also ends
/// wherever the duty changes, so every step sees a constant voltage.  The
/// committed state sits at a poll instant, and the plant hands the angle
/// at every poll instant it passes to the sampler (the encoder), in time
/// order.  A query between poll instants is answered from an uncommitted
/// step off that state, so observing the plant never moves its trajectory.
class DcMotorSim : public sim::Component {
 public:
  /// Throws std::invalid_argument for a motor plant_steps_per_poll()
  /// cannot step.
  DcMotorSim(sim::World& world, DcMotorParams params,
             std::string name = "motor");

  const std::string& name() const override { return name_; }
  void reset() override;

  /// Voltage source: a ZohSignal whose value is the *duty ratio* in [0, 1];
  /// armature voltage = duty * supply.
  void drive_from_duty(const sim::ZohSignal* duty);
  void set_load(LoadTorque load) { load_ = std::move(load); }

  /// Shaft sampler, called with the angle [rad] at each poll instant.
  using Sampler = std::function<void(double angle)>;
  void set_sampler(Sampler sampler) { sampler_ = std::move(sampler); }

  /// Hands every poll instant strictly before \p t to the sampler,
  /// integrating only as far as the last of them.
  void poll_until(sim::SimTime t);

  /// State at \p t, which must not precede the last poll handed out:
  /// poll_until(t), then an uncommitted step to t.
  double speed_at(sim::SimTime t);  ///< [rad/s]
  double angle_at(sim::SimTime t);  ///< [rad], unwrapped

 private:
  void state_at(sim::SimTime t, double (&y)[3]);
  /// Steps \p y from the poll instant \p from to \p to, no further than
  /// the next poll instant.
  void integrate(double (&y)[3], sim::SimTime from, sim::SimTime to) const;

  std::string name_;
  DcMotorDynamics dynamics_;
  int steps_per_poll_;
  const sim::ZohSignal* duty_ = nullptr;
  LoadTorque load_;
  Sampler sampler_;
  double state_[3] = {0, 0, 0};  ///< at next_poll_ - kPollInterval
  sim::SimTime next_poll_ = kPollInterval;
};

}  // namespace iecd::plant
