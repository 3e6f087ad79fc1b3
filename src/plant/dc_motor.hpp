/// \file dc_motor.hpp
/// The case-study plant: a mechanically commutated DC motor driven by a
/// power transistor switched by PWM (paper Section 7).  Electrical and
/// mechanical dynamics:
///   L di/dt = u - R i - Ke w
///   J dw/dt = Kt i - b w - tau_load
///   dtheta/dt = w
/// Two couplings are provided: a model::Block for MIL simulation inside the
/// plant subsystem, and an event-world component (a lazy integrator over
/// ZohSignal voltage and load inputs) for HIL co-simulation against the
/// simulated PWM peripheral.  Both step by the motor's exact zero-order-hold
/// map (ZohMap).  The event-world plant samples its shaft for the
/// incremental encoder on a fixed poll grid, so the encoder costs no queue
/// events.
#pragma once

#include <algorithm>
#include <functional>

#include "model/block.hpp"
#include "sim/time.hpp"
#include "sim/zoh_signal.hpp"
#include "util/diagnostics.hpp"

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

/// The rules every motor must meet before it is simulated: resistance,
/// inductance and inertia positive and finite; kt, ke and supply_voltage
/// finite; damping >= 0 and finite.  One error per broken field, named
/// "motor.<field>".
util::DiagnosticList validate(const DcMotorParams& params);

/// External load torque as a function of time and speed.
using LoadTorque = std::function<double(double t, double omega)>;

/// The exact step of the motor over h seconds with the armature voltage u
/// and the load torque tau held constant: x+ = phi x + gamma_u u +
/// gamma_tau tau for x = (current, omega, theta), phi = e^{A h}.
struct ZohMap {
  double phi[3][3];
  double gamma_u[3];
  double gamma_tau[3];

  void step(double (&x)[3], double u, double tau) const {
    const double x0 = x[0], x1 = x[1], x2 = x[2];
    for (int r = 0; r < 3; ++r) {
      x[r] = phi[r][0] * x0 + phi[r][1] * x1 + phi[r][2] * x2 +
             gamma_u[r] * u + gamma_tau[r] * tau;
    }
  }
};

/// The map for a step of \p h seconds, from a Taylor series with scaling
/// and squaring, accurate to double precision for any stiffness.  Entries
/// are NaN or inf for a motor whose matrix is not finite.
ZohMap zoh_map(const DcMotorParams& params, double h);

/// MIL plant block: input 0 = armature voltage [V], outputs 0..2 = speed
/// [rad/s], angle [rad], current [A].
///
/// Under the model engine the block takes one exact ZohMap step per major
/// step (the map is built once per step size): the voltage is the held
/// drive, and the load closure is read once, at the step's start time and
/// speed, and held over the step.  A model whose stage program has other
/// continuous blocks integrates it by RK4 through derivatives() instead.
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
  bool has_exact_step() const override { return true; }
  void step_exact(const model::SimContext& ctx, double h) override;

  const DcMotorParams& params() const { return params_; }

 private:
  DcMotorParams params_;
  LoadTorque load_;
  ZohMap map_{};
  double map_h_ = 0.0;  ///< the step map_ was built for; 0 = none yet
  double state_[3] = {0, 0, 0};
};

/// Encoder poll grid: the event-world plant takes one exact step per
/// interval and hands its shaft angle to its sampler at every multiple.
inline constexpr sim::SimTime kPollInterval = sim::microseconds(50);

/// HIL plant: integrates lazily up to any queried simulated time, using
/// the PWM's zero-order-hold average output as the armature voltage
/// (duty * supply) and an optional held load torque.
///
/// The trajectory is fixed by the plant alone.  Both inputs are piecewise
/// constant, so each step is the motor's exact ZohMap: one step per poll
/// interval with the map precomputed at construction, cut short wherever
/// the duty or the torque changes (those shorter steps compute their map
/// on demand).  The committed state sits at a poll instant, and the plant
/// hands the angle at every poll instant it passes to the sampler (the
/// encoder), in time order.  A query between poll instants is answered
/// from an uncommitted step off that state, so observing the plant never
/// moves its trajectory.
class DcMotorSim {
 public:
  /// Throws std::invalid_argument for a motor validate() rejects or whose
  /// poll map is not finite.
  explicit DcMotorSim(DcMotorParams params, std::string name = "motor");

  const std::string& name() const { return name_; }

  /// Voltage source: a ZohSignal whose value is the *duty ratio* in [0, 1];
  /// armature voltage = duty * supply.
  void drive_from_duty(const sim::ZohSignal* duty);
  /// Load source: a ZohSignal whose value is the load torque [N m]; null
  /// (the default) is no load.
  void load_from(const sim::ZohSignal* torque);

  /// Shaft sampler, called with the angle [rad] at each poll instant.
  using Sampler = std::function<void(double angle)>;
  void set_sampler(Sampler sampler) { sampler_ = std::move(sampler); }

  /// Hands every poll instant strictly before \p t to the sampler,
  /// integrating only as far as the last of them.
  void poll_until(sim::SimTime t);

  /// State at \p t: poll_until(t), then an uncommitted step to t.  Throws
  /// std::logic_error for a t behind the committed state, whose
  /// trajectory is gone.
  double speed_at(sim::SimTime t);  ///< [rad/s]
  double angle_at(sim::SimTime t);  ///< [rad], unwrapped

 private:
  /// A piecewise-constant input, with the piece last read from it.
  struct Input {
    const sim::ZohSignal* signal = nullptr;
    sim::ZohSignal::Piece piece{0.0, 0, 0};

    /// The value held at \p t; pulls \p end in to the piece's end.
    double at(sim::SimTime t, sim::SimTime& end) {
      if (!signal) return 0.0;
      // Only a piece with a finite end is final; the newest one may still
      // be cut by a later write.
      if (!(piece.start <= t && t < piece.end && piece.end != sim::kNever)) {
        piece = signal->piece_at(t);
      }
      end = std::min(end, piece.end);
      return piece.value;
    }
  };

  void state_at(sim::SimTime t, double (&y)[3]);
  /// Steps \p y from the poll instant \p from to \p to, no further than
  /// the next poll instant.
  void integrate(double (&y)[3], sim::SimTime from, sim::SimTime to);

  std::string name_;
  DcMotorParams params_;
  ZohMap poll_map_;
  Input duty_;
  Input load_;
  Sampler sampler_;
  double state_[3] = {0, 0, 0};  ///< at next_poll_ - kPollInterval
  sim::SimTime next_poll_ = kPollInterval;
};

}  // namespace iecd::plant
