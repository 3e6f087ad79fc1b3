/// \file rk4.hpp
/// The one classic Runge-Kutta-4 stepper shared by every integration site:
/// the model engine (model/engine.cpp) and the lane-batched simulation core
/// (src/batch/).
/// Historically each site carried its own copy of the stage/combination
/// loops; they are deduplicated here under a strict bit-identity contract.
///
/// Bit-identity contract: these helpers spell the stage candidate as
///     out[i] = y[i] + a * k[i]          (a = 0.5 * h or h)
/// and the combination as
///     y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
/// — token for token the expressions the engine has always used.  IEEE
/// double arithmetic is deterministic for a fixed expression tree, so any
/// caller evaluating the same derivatives in the same order produces the
/// same bits whether it steps one run (scalar spans) or N runs in SoA form
/// (lane spans).  tests/batch_test.cpp locks this: the batched core must
/// reproduce the scalar engine's trajectories exactly, which fails if
/// anyone "simplifies" these expressions (e.g. hoisting 1/L or fusing the
/// combination weights).
///
/// The loops are written over raw spans with no internal branches so the
/// autovectorizer turns them into packed mul/add over adjacent elements —
/// for the batched core the spans are 64-byte-aligned lane arrays and the
/// same source line is the SIMD kernel.
#pragma once

#include <cstddef>
#include <span>

namespace iecd::util {

/// RK4 stage candidate: out[i] = y[i] + a * k[i].  \p a is 0.5 * h for the
/// two midpoint stages and h for the endpoint stage.
inline void rk4_stage(std::span<const double> y, std::span<const double> k,
                      double a, std::span<double> out) {
  for (std::size_t i = 0; i < y.size(); ++i) {
    out[i] = y[i] + a * k[i];
  }
}

/// RK4 combination: y[i] += h / 6.0 * (k1 + 2 k2 + 2 k3 + k4).
inline void rk4_combine(std::span<double> y, double h,
                        std::span<const double> k1,
                        std::span<const double> k2,
                        std::span<const double> k3,
                        std::span<const double> k4) {
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
  }
}

/// One classic RK4 step over a fixed-size state: advances \p state from
/// \p t0 by \p h.  \p deriv is invoked as deriv(t, y, dx) at the stage
/// times t0, t0 + 0.5 h, t0 + 0.5 h, t0 + h — the same order and the same
/// stage-time expressions as the historical inline copies.
template <std::size_t N, typename Deriv>
inline void rk4_step(double (&state)[N], double t0, double h, Deriv&& deriv) {
  double k1[N], k2[N], k3[N], k4[N], y[N];
  deriv(t0, static_cast<const double*>(state), k1);
  rk4_stage(std::span<const double>(state), std::span<const double>(k1),
            0.5 * h, std::span<double>(y));
  deriv(t0 + 0.5 * h, static_cast<const double*>(y), k2);
  rk4_stage(std::span<const double>(state), std::span<const double>(k2),
            0.5 * h, std::span<double>(y));
  deriv(t0 + 0.5 * h, static_cast<const double*>(y), k3);
  rk4_stage(std::span<const double>(state), std::span<const double>(k3), h,
            std::span<double>(y));
  deriv(t0 + h, static_cast<const double*>(y), k4);
  rk4_combine(std::span<double>(state), h, std::span<const double>(k1),
              std::span<const double>(k2), std::span<const double>(k3),
              std::span<const double>(k4));
}

}  // namespace iecd::util
