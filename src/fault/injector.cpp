#include "fault/injector.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "trace/metrics.hpp"

namespace iecd::fault {

util::DiagnosticList validate(const FaultPlan& p) {
  util::DiagnosticList d;
  const auto require = [&d](bool ok, const char* field, const char* rule,
                            double value) {
    d.require(ok, std::string("fault.") + field, rule, value);
  };
  const auto rate = [&require](double v, const char* field) {
    require(v >= 0.0 && v <= 1.0, field, "in [0, 1]", v);
  };
  const auto non_negative = [&require](double v, const char* field) {
    require(v >= 0.0 && std::isfinite(v), field, ">= 0", v);
  };
  rate(p.serial_corrupt_rate, "serial_corrupt_rate");
  rate(p.serial_drop_rate, "serial_drop_rate");
  rate(p.serial_dup_rate, "serial_dup_rate");
  rate(p.can_corrupt_rate, "can_corrupt_rate");
  rate(p.can_drop_rate, "can_drop_rate");
  rate(p.can_dup_rate, "can_dup_rate");
  rate(p.pil_truncate_rate, "pil_truncate_rate");
  rate(p.pil_delay_rate, "pil_delay_rate");
  non_negative(p.pil_delay_max_s, "pil_delay_max_s");
  rate(p.irq_spike_rate, "irq_spike_rate");
  rate(p.task_overrun_rate, "task_overrun_rate");
  rate(p.adc_stuck_rate, "adc_stuck_rate");
  rate(p.adc_noise_rate, "adc_noise_rate");
  rate(p.encoder_glitch_rate, "encoder_glitch_rate");
  non_negative(p.torque_pulse_rate_hz, "torque_pulse_rate_hz");
  require(std::isfinite(p.torque_pulse_nm), "torque_pulse_nm", "finite",
          p.torque_pulse_nm);
  non_negative(p.torque_pulse_s, "torque_pulse_s");
  rate(p.node_kill_rate, "node_kill_rate");
  rate(p.node_degrade_rate, "node_degrade_rate");
  require(p.node_degrade_factor >= 1.0 && std::isfinite(p.node_degrade_factor),
          "node_degrade_factor", ">= 1", p.node_degrade_factor);
  return d;
}

FaultInjector::FaultInjector(std::uint64_t seed, FaultPlan plan)
    : seed_(seed), plan_(plan) {
  if (const util::DiagnosticList d = validate(plan_); d.has_errors()) {
    throw std::invalid_argument("FaultInjector: invalid fault plan:\n" +
                                d.to_string());
  }
}

void FaultInjector::export_metrics(trace::MetricsRegistry& metrics) const {
  for (const auto& [name, site] : sites_) {
    metrics.counter("fault." + name + ".injected").value = site.injected();
    metrics.counter("fault." + name + ".opportunities").value =
        site.opportunities();
  }
}

}  // namespace iecd::fault
