#include "plant/dc_motor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rk4.hpp"

namespace iecd::plant {

void DcMotorDynamics::derivatives(const double state[3], double voltage,
                                  double load_torque, double dx[3]) const {
  const double i = state[0];
  const double w = state[1];
  dx[0] = (voltage - params.resistance * i - params.ke * w) /
          params.inductance;
  dx[1] = (params.kt * i - params.damping * w - load_torque) / params.inertia;
  dx[2] = w;
}

DcMotorBlock::DcMotorBlock(std::string name, DcMotorParams params)
    : Block(std::move(name), 1, 3) {
  dynamics_.params = params;
  set_sample_time(model::SampleTime::continuous());
}

void DcMotorBlock::initialize(const model::SimContext& ctx) {
  state_[0] = state_[1] = state_[2] = 0.0;
  output(ctx);
}

void DcMotorBlock::output(const model::SimContext&) {
  set_out(0, state_[1]);
  set_out(1, state_[2]);
  set_out(2, state_[0]);
}

void DcMotorBlock::read_states(std::span<double> into) const {
  std::copy(state_, state_ + 3, into.begin());
}

void DcMotorBlock::write_states(std::span<const double> from) {
  std::copy(from.begin(), from.begin() + 3, state_);
}

void DcMotorBlock::derivatives(const model::SimContext& ctx,
                               std::span<double> dx) const {
  const double u = in(0);
  const double tau = load_ ? load_(ctx.t, state_[1]) : 0.0;
  double out[3];
  dynamics_.derivatives(state_, u, tau, out);
  std::copy(out, out + 3, dx.begin());
}

namespace {

// Share of RK4's stability limit a plant step may use: far enough inside
// it that the step resolves the fastest mode accurately, not just stably.
constexpr double kAccuracyMargin = 0.1;

}  // namespace

double fastest_mode(const DcMotorParams& p) {
  const double trace = -(p.resistance / p.inductance + p.damping / p.inertia);
  const double det = (p.resistance * p.damping + p.kt * p.ke) /
                     (p.inductance * p.inertia);
  const double disc = 0.25 * trace * trace - det;
  return disc >= 0.0 ? 0.5 * std::abs(trace) + std::sqrt(disc)
                     : std::sqrt(det);
}

int plant_steps_per_poll(const DcMotorParams& params) {
  const double steps =
      std::ceil(sim::to_seconds(kPollInterval) * fastest_mode(params) /
                (kAccuracyMargin * kRk4StabilityLimit));
  if (!(steps <= static_cast<double>(kPollInterval))) {
    throw std::invalid_argument(
        "DcMotorSim: no RK4 step of 1 ns or more resolves this motor "
        "(fastest mode " + std::to_string(fastest_mode(params)) + " 1/s)");
  }
  return std::max(1, static_cast<int>(steps));
}

DcMotorSim::DcMotorSim(sim::World& world, DcMotorParams params,
                       std::string name)
    : name_(std::move(name)),
      dynamics_{params},
      steps_per_poll_(plant_steps_per_poll(params)) {
  world.attach(*this);
}

void DcMotorSim::reset() {
  state_[0] = state_[1] = state_[2] = 0.0;
  next_poll_ = kPollInterval;
}

void DcMotorSim::drive_from_duty(const sim::ZohSignal* duty) { duty_ = duty; }

void DcMotorSim::poll_until(sim::SimTime t) {
  while (next_poll_ < t) {
    integrate(state_, next_poll_ - kPollInterval, next_poll_);
    if (sampler_) sampler_(state_[2]);
    next_poll_ += kPollInterval;
  }
}

void DcMotorSim::state_at(sim::SimTime t, double (&y)[3]) {
  poll_until(t);
  std::copy(state_, state_ + 3, y);
  integrate(y, next_poll_ - kPollInterval, t);
}

double DcMotorSim::speed_at(sim::SimTime t) {
  double y[3];
  state_at(t, y);
  return y[1];
}

double DcMotorSim::angle_at(sim::SimTime t) {
  double y[3];
  state_at(t, y);
  return y[2];
}

void DcMotorSim::integrate(double (&y)[3], sim::SimTime from,
                           sim::SimTime to) const {
  const double supply = dynamics_.params.supply_voltage;
  sim::SimTime t = from;
  int k = 1;  // index of the next step-grid point
  while (t < to) {
    const sim::SimTime grid = from + kPollInterval * k / steps_per_poll_;
    sim::SimTime end = std::min(grid, to);
    double duty = 0.0;
    if (duty_) {
      const sim::ZohSignal::Piece piece = duty_->piece_at(t);
      duty = piece.value;
      end = std::min(end, piece.end);
    }
    const double u = duty * supply;
    // Shared classic RK4 (util/rk4.hpp); the voltage is constant over the
    // step because the step ends at the next duty change.
    util::rk4_step(y, sim::to_seconds(t), sim::to_seconds(end - t),
                   [&](double time, const double* s, double* dx) {
                     dynamics_.derivatives(s, u,
                                           load_ ? load_(time, s[1]) : 0.0,
                                           dx);
                   });
    if (end == grid) ++k;
    t = end;
  }
}

}  // namespace iecd::plant
