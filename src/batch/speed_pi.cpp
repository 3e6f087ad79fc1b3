#include "batch/speed_pi.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace iecd::batch {

util::DiagnosticList validate(const SpeedPiParams& p) {
  util::DiagnosticList d;
  d.require(p.encoder_lines > 0, "encoder_lines", "positive", p.encoder_lines);
  d.require(p.period_s > 0 && std::isfinite(p.period_s), "period_s",
            "positive", p.period_s);
  d.require(std::isfinite(p.kp), "kp", "finite", p.kp);
  d.require(std::isfinite(p.ki), "ki", "finite", p.ki);
  d.require(p.speed_filter_taps >= 1, "speed_filter_taps", ">= 1",
            p.speed_filter_taps);
  return d;
}

namespace {

const SpeedPiParams& checked(const SpeedPiParams& params) {
  if (const util::DiagnosticList d = validate(params); d.has_errors()) {
    throw std::invalid_argument("SpeedPi: invalid controller:\n" +
                                d.to_string());
  }
  return params;
}

}  // namespace

SpeedPi::SpeedPi(const SpeedPiParams& params)
    : period_s_(checked(params).period_s),
      gain_(2.0 * std::numbers::pi /
            (static_cast<double>(params.encoder_lines * 4) * params.period_s)),
      filter_(params.speed_filter_taps),
      pi_({params.kp, params.ki, 0.0, 10.0}, 0.0, 1.0) {}

}  // namespace iecd::batch
