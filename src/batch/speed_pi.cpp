#include "batch/speed_pi.hpp"

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

SpeedPi::SpeedPi(const SpeedPiParams& params)
    : kp_(params.kp), ki_(params.ki), period_s_(params.period_s) {
  if (const util::DiagnosticList d = validate(params); d.has_errors()) {
    throw std::invalid_argument("SpeedPi: invalid controller:\n" +
                                d.to_string());
  }
  const double cpr = static_cast<double>(params.encoder_lines * 4);
  gain_ = 2.0 * std::numbers::pi / (cpr * params.period_s);
  window_.assign(static_cast<std::size_t>(params.speed_filter_taps - 1), 0.0);
}

}  // namespace iecd::batch
