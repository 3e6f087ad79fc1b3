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
/// map (ZohMap).  The event-world plant steps only where an input changes
/// or someone reads it, so the encoder costs no queue events.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
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

/// HIL plant: integrates lazily up to any queried simulated time, using
/// the PWM's zero-order-hold average output as the armature voltage
/// (duty * supply) and an optional held load torque.
///
/// The trajectory is fixed by the inputs and the commit grid alone.  Both
/// inputs are piecewise constant, and the state is committed at every duty
/// or torque change, on the grid and never more than kMaxStep apart, each
/// stretch in one exact ZohMap step (its map from a small cache keyed by
/// the step length).  A query commits every such instant at or before its
/// time, then answers from an uncommitted step, so observing the plant
/// never moves its trajectory.
class DcMotorSim {
 public:
  /// Throws std::invalid_argument for a motor validate() rejects or whose
  /// step map is not finite.
  explicit DcMotorSim(DcMotorParams params);

  /// Voltage source: a ZohSignal whose value is the *duty ratio* in [0, 1];
  /// armature voltage = duty * supply.
  void drive_from_duty(const sim::ZohSignal* duty);
  /// Load source: a ZohSignal whose value is the load torque [N m]; null
  /// (the default) is no load.
  void load_from(const sim::ZohSignal* torque);

  /// State at \p t.  Throws std::logic_error for a t behind the committed
  /// state, whose trajectory is gone.
  double speed_at(sim::SimTime t) { return state_at(t).x[1]; }  ///< [rad/s]
  double angle_at(sim::SimTime t) { return state_at(t).x[2]; }  ///< [rad]

  /// Also commits the state at every multiple of \p grid (0, the default:
  /// none), so that an observer reading the plant on that grid takes one
  /// step of the grid's length per read.
  void set_commit_grid(sim::SimTime grid) { commit_grid_ = grid; }

  /// Map steps taken (committed or not), and the maps built on a miss.
  std::uint64_t map_steps() const { return map_steps_; }
  std::uint64_t map_misses() const { return map_misses_; }

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

  /// A map and the step length [ns] it was built for; 0 = empty.
  struct CachedMap {
    sim::SimTime h = 0;
    ZohMap map{};
  };
  /// The longest committed step, so that a read of a held duty is not a
  /// new step length (and map) every time.
  static constexpr sim::SimTime kMaxStep = sim::milliseconds(1);

  struct State {
    double x[3];  ///< current, speed, unwrapped angle
  };
  State state_at(sim::SimTime t);
  /// One exact step of \p h with the inputs held at u and tau.
  void step(double (&y)[3], sim::SimTime h, double u, double tau);

  DcMotorParams params_;
  Input duty_;
  Input load_;
  double state_[3] = {0, 0, 0};  ///< at committed_
  sim::SimTime committed_ = 0;
  sim::SimTime commit_grid_ = 0;
  /// A periodic control loop reads the plant at a few recurring offsets
  /// from its commits, so four entries serve almost every step.
  std::array<CachedMap, 4> maps_{};
  std::size_t next_slot_ = 1;  ///< the entry a miss overwrites
  std::uint64_t map_steps_ = 0;
  std::uint64_t map_misses_ = 0;
};

}  // namespace iecd::plant
