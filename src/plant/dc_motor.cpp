#include "plant/dc_motor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace iecd::plant {

DcMotorBlock::DcMotorBlock(std::string name, DcMotorParams params)
    : Block(std::move(name), 1, 3), params_(params) {
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
  const double i = state_[0];
  const double w = state_[1];
  const DcMotorParams& p = params_;
  dx[0] = (u - p.resistance * i - p.ke * w) / p.inductance;
  dx[1] = (p.kt * i - p.damping * w - tau) / p.inertia;
  dx[2] = w;
}

void DcMotorBlock::step_exact(const model::SimContext& ctx, double h) {
  if (h != map_h_) {
    map_ = zoh_map(params_, h);
    map_h_ = h;
  }
  const double tau = load_ ? load_(ctx.t, state_[1]) : 0.0;
  map_.step(state_, in(0), tau);
  DcMotorBlock::output(ctx);
}

util::DiagnosticList validate(const DcMotorParams& p) {
  util::DiagnosticList d;
  const auto positive = [](double v) { return v > 0 && std::isfinite(v); };
  d.require(positive(p.inertia), "motor.inertia", "positive", p.inertia);
  d.require(positive(p.inductance), "motor.inductance", "positive",
            p.inductance);
  d.require(positive(p.resistance), "motor.resistance", "positive",
            p.resistance);
  d.require(std::isfinite(p.kt), "motor.kt", "finite", p.kt);
  d.require(std::isfinite(p.ke), "motor.ke", "finite", p.ke);
  d.require(p.damping >= 0 && std::isfinite(p.damping), "motor.damping",
            ">= 0", p.damping);
  d.require(std::isfinite(p.supply_voltage), "motor.supply_voltage", "finite",
            p.supply_voltage);
  return d;
}

namespace {

using Mat3 = double[3][3];

void multiply(const Mat3& a, const Mat3& b, Mat3& out) {
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      out[r][c] = a[r][0] * b[0][c] + a[r][1] * b[1][c] + a[r][2] * b[2][c];
    }
  }
}

// Taylor terms of T = sum_k X^k / (k+1)! kept once |X| <= 1/2: the first
// term dropped is below 2^-15 / 16!, under a unit roundoff of T ~ 1.
constexpr int kTaylorTerms = 14;

}  // namespace

ZohMap zoh_map(const DcMotorParams& p, double h) {
  const double a[3][3] = {
      {-p.resistance / p.inductance, -p.ke / p.inductance, 0.0},
      {p.kt / p.inertia, -p.damping / p.inertia, 0.0},
      {0.0, 1.0, 0.0}};
  // Scaling: halve the step until |A h_s| (row-sum norm) is at most 1/2.
  double norm = 0.0;
  for (const auto& row : a) {
    norm = std::max(norm,
                    std::abs(row[0]) + std::abs(row[1]) + std::abs(row[2]));
  }
  norm *= h;
  int squarings = 0;
  double hs = h;
  // A non-finite matrix is left unscaled: its map comes out non-finite.
  while (std::isfinite(norm) && norm > 0.5) {
    norm *= 0.5;
    hs *= 0.5;
    ++squarings;
  }
  Mat3 x;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) x[r][c] = a[r][c] * hs;
  }
  // T = sum_k X^k / (k+1)! by Horner; then e^X = I + X T and the input
  // integral int_0^hs e^{A s} ds = hs T.
  Mat3 t = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  Mat3 xt;
  for (int k = kTaylorTerms; k >= 1; --k) {
    multiply(x, t, xt);
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) {
        t[r][c] = (r == c ? 1.0 : 0.0) + xt[r][c] / (k + 1);
      }
    }
  }
  multiply(x, t, xt);
  ZohMap map;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      map.phi[r][c] = (r == c ? 1.0 : 0.0) + xt[r][c];
    }
    // B = [1/L, 0, 0] for the voltage and [0, -1/J, 0] for the load.
    map.gamma_u[r] = hs * t[r][0] / p.inductance;
    map.gamma_tau[r] = -hs * t[r][1] / p.inertia;
  }
  // Squaring: two steps of hs are one of 2 hs, phi -> phi phi and
  // gamma -> phi gamma + gamma.
  for (int i = 0; i < squarings; ++i) {
    Mat3 phi2;
    multiply(map.phi, map.phi, phi2);
    double gu[3];
    double gt[3];
    for (int r = 0; r < 3; ++r) {
      gu[r] = map.gamma_u[r];
      gt[r] = map.gamma_tau[r];
      for (int c = 0; c < 3; ++c) {
        gu[r] += map.phi[r][c] * map.gamma_u[c];
        gt[r] += map.phi[r][c] * map.gamma_tau[c];
      }
    }
    std::copy(&phi2[0][0], &phi2[0][0] + 9, &map.phi[0][0]);
    std::copy(gu, gu + 3, map.gamma_u);
    std::copy(gt, gt + 3, map.gamma_tau);
  }
  return map;
}

DcMotorSim::DcMotorSim(DcMotorParams params) : params_(params) {
  if (const util::DiagnosticList d = validate(params); d.has_errors()) {
    throw std::invalid_argument("DcMotorSim: invalid motor:\n" +
                                d.to_string());
  }
  // The longest step's map is built up front and checked: a NaN or inf
  // entry makes the sum of all entries non-finite.
  maps_[0] = {kMaxStep, zoh_map(params, sim::to_seconds(kMaxStep))};
  const ZohMap& map = maps_[0].map;
  double sum = 0.0;
  for (int r = 0; r < 3; ++r) {
    sum += map.phi[r][0] + map.phi[r][1] + map.phi[r][2] + map.gamma_u[r] +
           map.gamma_tau[r];
  }
  if (!std::isfinite(sum)) {
    throw std::invalid_argument(
        "DcMotorSim: the motor's step map is not finite");
  }
}

void DcMotorSim::drive_from_duty(const sim::ZohSignal* duty) {
  duty_ = Input{duty};
}

void DcMotorSim::load_from(const sim::ZohSignal* torque) {
  load_ = Input{torque};
}

DcMotorSim::State DcMotorSim::state_at(sim::SimTime t) {
  if (t < committed_) {
    throw std::logic_error("DcMotorSim: query behind the committed state");
  }
  for (;;) {
    // Each step ends at the next duty or torque change (or kMaxStep on, or
    // the next grid instant), so both inputs are constant over it and its
    // map is exact.
    sim::SimTime end = committed_ + kMaxStep;
    if (commit_grid_ > 0) {
      end = std::min(end, committed_ - committed_ % commit_grid_ + commit_grid_);
    }
    const double u = duty_.at(committed_, end) * params_.supply_voltage;
    const double tau = load_.at(committed_, end);
    if (end > t) {
      State y{{state_[0], state_[1], state_[2]}};
      if (t > committed_) step(y.x, t - committed_, u, tau);
      return y;
    }
    step(state_, end - committed_, u, tau);
    committed_ = end;
  }
}

void DcMotorSim::step(double (&y)[3], sim::SimTime h, double u, double tau) {
  ++map_steps_;
  CachedMap* hit = nullptr;
  for (CachedMap& entry : maps_) {
    if (entry.h == h) {
      hit = &entry;
      break;
    }
  }
  if (hit == nullptr) {
    ++map_misses_;
    hit = &maps_[next_slot_];
    next_slot_ = (next_slot_ + 1) % maps_.size();
    *hit = {h, zoh_map(params_, sim::to_seconds(h))};
  }
  hit->map.step(y, u, tau);
}

}  // namespace iecd::plant
