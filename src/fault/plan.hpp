/// \file plan.hpp
/// The fault matrix of a campaign: per-site rates (probability per
/// opportunity — per byte on a serial channel, per frame on the CAN bus,
/// per dispatch on the CPU, per poll on the encoder) plus the magnitudes
/// the fired faults apply.  A plan with every rate at zero wires NOTHING:
/// the site helpers in sites.hpp install no hooks, so a zero-rate campaign
/// run is bit-identical to a run with no fault subsystem attached (the
/// determinism suite locks this).
#pragma once

#include <cstdint>

#include "util/diagnostics.hpp"

namespace iecd::fault {

struct FaultPlan {
  // ------------------------------------------------ serial link (per byte)
  double serial_corrupt_rate = 0.0;  ///< single-bit flip on the wire
  double serial_drop_rate = 0.0;     ///< byte lost (framing error, discarded)
  double serial_dup_rate = 0.0;      ///< byte delivered twice (glitch echo)

  // -------------------------------------------------- CAN bus (per frame)
  double can_corrupt_rate = 0.0;  ///< payload/CRC corruption -> rx discard
  double can_drop_rate = 0.0;     ///< frame lost on the wire
  double can_dup_rate = 0.0;      ///< frame retransmitted back-to-back

  // ------------------------------------------- PIL framing (per tx frame)
  double pil_truncate_rate = 0.0;  ///< frame cut short (reset mid-send)
  double pil_delay_rate = 0.0;     ///< host tx stalled before the wire
  double pil_delay_max_s = 0.0;    ///< uniform delay bound [s]

  // ------------------------------------------- MCU timing (per dispatch)
  double irq_spike_rate = 0.0;          ///< extra interrupt latency
  std::uint64_t irq_spike_cycles = 0;   ///< spike magnitude [cycles]
  double task_overrun_rate = 0.0;       ///< periodic step runs long
  std::uint64_t task_overrun_cycles = 0;

  // -------------------------------------- sensors/plant (per conversion /
  // per encoder poll / pulses per second)
  double adc_stuck_rate = 0.0;        ///< conversion repeats the last code
  double adc_noise_rate = 0.0;        ///< conversion jittered by +-noise_lsb
  std::uint32_t adc_noise_lsb = 0;
  double encoder_glitch_rate = 0.0;   ///< spurious +-glitch_counts slip
  std::int32_t encoder_glitch_counts = 0;
  double torque_pulse_rate_hz = 0.0;  ///< expected disturbance pulses / s
  double torque_pulse_nm = 0.0;       ///< pulse amplitude (random sign)
  double torque_pulse_s = 0.0;        ///< pulse width [s]

  // ------------------------------------- co-sim nodes (per node, per run)
  /// Probability a farm node dies mid-run (control timer disabled, PWM
  /// zeroed at a site-drawn time); site "cosim.<node>".
  double node_kill_rate = 0.0;
  /// Probability a farm node runs degraded: its control timer is stretched
  /// by node_degrade_factor (same site, drawn before the kill draw).
  double node_degrade_rate = 0.0;
  double node_degrade_factor = 1.0;  ///< period stretch for degraded nodes

  /// True when no site would ever fire: the wiring helpers install no
  /// hooks, create no sites, and the run stays bit-identical to one with
  /// no fault subsystem at all.
  bool empty() const {
    return serial_corrupt_rate <= 0.0 && serial_drop_rate <= 0.0 &&
           serial_dup_rate <= 0.0 && can_corrupt_rate <= 0.0 &&
           can_drop_rate <= 0.0 && can_dup_rate <= 0.0 &&
           pil_truncate_rate <= 0.0 && pil_delay_rate <= 0.0 &&
           irq_spike_rate <= 0.0 && task_overrun_rate <= 0.0 &&
           adc_stuck_rate <= 0.0 && adc_noise_rate <= 0.0 &&
           encoder_glitch_rate <= 0.0 && torque_pulse_rate_hz <= 0.0 &&
           node_kill_rate <= 0.0 && node_degrade_rate <= 0.0;
  }

  /// Same magnitudes, every rate multiplied by \p factor (campaign
  /// stress-level axis; 0 yields an empty plan).
  FaultPlan scaled(double factor) const {
    FaultPlan p = *this;
    p.serial_corrupt_rate *= factor;
    p.serial_drop_rate *= factor;
    p.serial_dup_rate *= factor;
    p.can_corrupt_rate *= factor;
    p.can_drop_rate *= factor;
    p.can_dup_rate *= factor;
    p.pil_truncate_rate *= factor;
    p.pil_delay_rate *= factor;
    p.irq_spike_rate *= factor;
    p.task_overrun_rate *= factor;
    p.adc_stuck_rate *= factor;
    p.adc_noise_rate *= factor;
    p.encoder_glitch_rate *= factor;
    p.torque_pulse_rate_hz *= factor;
    p.node_kill_rate *= factor;
    p.node_degrade_rate *= factor;
    return p;
  }

  /// The default campaign: every layer perturbed at rates the PIL recovery
  /// layer is expected to survive with zero unrecovered exchanges (the CI
  /// fault-campaign job gates exactly this plan).
  static FaultPlan defaults() {
    FaultPlan p;
    p.serial_corrupt_rate = 5e-4;
    p.serial_drop_rate = 2e-4;
    p.serial_dup_rate = 2e-4;
    p.can_corrupt_rate = 2e-3;
    p.can_drop_rate = 1e-3;
    p.can_dup_rate = 1e-3;
    p.pil_truncate_rate = 2e-3;
    p.pil_delay_rate = 2e-3;
    p.pil_delay_max_s = 1e-4;
    p.irq_spike_rate = 1e-3;
    p.irq_spike_cycles = 2000;
    p.task_overrun_rate = 1e-3;
    p.task_overrun_cycles = 1000;
    p.adc_stuck_rate = 1e-4;
    p.adc_noise_rate = 1e-2;
    p.adc_noise_lsb = 2;
    p.encoder_glitch_rate = 5e-4;
    p.encoder_glitch_counts = 2;
    p.torque_pulse_rate_hz = 2.0;
    p.torque_pulse_nm = 0.002;
    p.torque_pulse_s = 0.01;
    p.node_kill_rate = 0.08;
    p.node_degrade_rate = 0.1;
    p.node_degrade_factor = 1.5;
    return p;
  }
};

/// The rules every plan must meet: each *_rate in [0, 1];
/// torque_pulse_rate_hz, torque_pulse_s and pil_delay_max_s finite and
/// >= 0; torque_pulse_nm finite; node_degrade_factor finite and >= 1.  One
/// error per broken field, named "fault.<field>".
util::DiagnosticList validate(const FaultPlan& plan);

}  // namespace iecd::fault
