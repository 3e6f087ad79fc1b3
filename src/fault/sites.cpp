#include "fault/sites.hpp"

#include <algorithm>
#include <memory>
#include <vector>

namespace iecd::fault {

namespace {

/// Picks one of up to three mutually exclusive actions with ONE
/// opportunity draw (so the per-byte/per-frame stream advances exactly
/// once per opportunity) plus one pick draw on a hit.
template <typename Action>
Action pick_action(FaultInjector::Site& site, double corrupt, double drop,
                   double dup, Action none, Action a_corrupt, Action a_drop,
                   Action a_dup) {
  const double total = corrupt + drop + dup;
  if (!site.fire(total)) return none;
  const double pick = site.uniform(0.0, total);
  if (pick < corrupt) return a_corrupt;
  if (pick < corrupt + drop) return a_drop;
  return a_dup;
}

}  // namespace

void wire_serial_channel(FaultInjector& injector,
                         sim::SerialChannel& channel) {
  const FaultPlan& plan = injector.plan();
  const double corrupt = plan.serial_corrupt_rate;
  const double drop = plan.serial_drop_rate;
  const double dup = plan.serial_dup_rate;
  if (corrupt <= 0.0 && drop <= 0.0 && dup <= 0.0) return;
  FaultInjector::Site& site = injector.site("serial." + channel.name());
  channel.set_fault_hook([&site, corrupt, drop, dup](std::uint8_t) {
    using Action = sim::SerialChannel::ByteFaultAction;
    sim::SerialChannel::ByteFault fault;
    fault.action =
        pick_action(site, corrupt, drop, dup, Action::kNone, Action::kCorrupt,
                    Action::kDrop, Action::kDuplicate);
    if (fault.action == Action::kCorrupt) fault.xor_mask = site.bit_mask();
    return fault;
  });
}

void wire_can_bus(FaultInjector& injector, sim::CanBus& bus) {
  const FaultPlan& plan = injector.plan();
  const double corrupt = plan.can_corrupt_rate;
  const double drop = plan.can_drop_rate;
  const double dup = plan.can_dup_rate;
  if (corrupt <= 0.0 && drop <= 0.0 && dup <= 0.0) return;
  FaultInjector::Site& site = injector.site("can." + bus.name());
  bus.set_fault_hook([&site, corrupt, drop, dup](const sim::CanFrame&) {
    using Action = sim::CanBus::FrameFaultAction;
    sim::CanBus::FrameFault fault;
    fault.action =
        pick_action(site, corrupt, drop, dup, Action::kNone, Action::kCorrupt,
                    Action::kDrop, Action::kDuplicate);
    if (fault.action == Action::kCorrupt) fault.xor_mask = site.bit_mask();
    return fault;
  });
}

void wire_cpu(FaultInjector& injector, mcu::Cpu& cpu) {
  const FaultPlan& plan = injector.plan();
  if (plan.irq_spike_rate <= 0.0 || plan.irq_spike_cycles == 0) return;
  FaultInjector::Site& site = injector.site("mcu.irq");
  const double rate = plan.irq_spike_rate;
  const std::uint64_t cycles = plan.irq_spike_cycles;
  cpu.set_dispatch_fault(
      [&site, rate, cycles](const mcu::DispatchRecord&) -> std::uint64_t {
        return site.fire(rate) ? cycles : 0;
      });
}

void wire_runtime(FaultInjector& injector, rt::Runtime& runtime) {
  const FaultPlan& plan = injector.plan();
  if (plan.task_overrun_rate <= 0.0 || plan.task_overrun_cycles == 0) return;
  FaultInjector::Site& site = injector.site("rt.task");
  const double rate = plan.task_overrun_rate;
  const std::uint64_t cycles = plan.task_overrun_cycles;
  runtime.set_overrun_hook(
      [&site, rate, cycles]() -> std::uint64_t {
        return site.fire(rate) ? cycles : 0;
      });
}

void wire_adc(FaultInjector& injector, periph::AdcPeripheral& adc) {
  const FaultPlan& plan = injector.plan();
  const double stuck = plan.adc_stuck_rate;
  const double noise =
      plan.adc_noise_lsb > 0 ? plan.adc_noise_rate : 0.0;
  if (stuck <= 0.0 && noise <= 0.0) return;
  FaultInjector::Site& site = injector.site("adc." + adc.name());
  const std::uint32_t lsb = plan.adc_noise_lsb;
  const std::uint32_t max_code = adc.max_code();
  // Stuck-at replays the code the converter last produced (faulted or
  // not) — the behaviour of a sample-and-hold that failed to acquire.
  auto last = std::make_shared<std::vector<std::uint32_t>>(
      static_cast<std::size_t>(adc.config().channels), 0u);
  auto have_last = std::make_shared<std::vector<bool>>(
      static_cast<std::size_t>(adc.config().channels), false);
  adc.set_code_fault_hook([&site, stuck, noise, lsb, max_code, last,
                           have_last](int channel, std::uint32_t code) {
    const auto ch = static_cast<std::size_t>(channel);
    std::uint32_t out = code;
    if (site.fire(stuck)) {
      if ((*have_last)[ch]) out = (*last)[ch];
    } else if (site.fire(noise)) {
      const std::uint32_t magnitude =
          static_cast<std::uint32_t>(site.next_u64() % lsb) + 1;
      if (site.next_u64() & 1u) {
        out = out + magnitude > max_code ? max_code : out + magnitude;
      } else {
        out = out >= magnitude ? out - magnitude : 0;
      }
    }
    (*last)[ch] = out;
    (*have_last)[ch] = true;
    return out;
  });
}

void wire_encoder(FaultInjector& injector,
                  plant::IncrementalEncoder& encoder) {
  const FaultPlan& plan = injector.plan();
  if (plan.encoder_glitch_rate <= 0.0 || plan.encoder_glitch_counts == 0) {
    return;
  }
  FaultInjector::Site& site = injector.site("encoder." + encoder.name());
  const double rate = plan.encoder_glitch_rate;
  const std::int32_t counts = plan.encoder_glitch_counts;
  encoder.set_count_fault_hook([&site, rate, counts]() -> std::int32_t {
    if (!site.fire(rate)) return 0;
    return (site.next_u64() & 1u) ? counts : -counts;
  });
}

namespace {

struct TorquePulse {
  double start;
  double end;
  double torque;
};

// The whole pulse schedule, drawn up front (uniform inter-arrival with the
// plan's mean rate, random sign), so the plant reads it at any time without
// consuming stream state.  Empty when the plan schedules no pulses.
std::vector<TorquePulse> draw_torque_pulses(FaultInjector& injector,
                                            double duration_s) {
  const FaultPlan& plan = injector.plan();
  std::vector<TorquePulse> pulses;
  if (plan.torque_pulse_rate_hz <= 0.0 || plan.torque_pulse_nm == 0.0 ||
      plan.torque_pulse_s <= 0.0) {
    return pulses;
  }
  FaultInjector::Site& site = injector.site("plant.torque");
  const double mean_gap = 1.0 / plan.torque_pulse_rate_hz;
  double t = 0.0;
  for (;;) {
    t += site.uniform(0.0, 2.0 * mean_gap);
    if (t >= duration_s) break;
    const double torque =
        (site.next_u64() & 1u) ? plan.torque_pulse_nm : -plan.torque_pulse_nm;
    pulses.push_back({t, t + plan.torque_pulse_s, torque});
    site.note_injected();
  }
  return pulses;
}

}  // namespace

plant::LoadTorque make_load_torque(FaultInjector& injector,
                                   double duration_s) {
  auto pulses = std::make_shared<const std::vector<TorquePulse>>(
      draw_torque_pulses(injector, duration_s));
  if (pulses->empty()) return nullptr;
  return [pulses](double time, double /*omega*/) -> double {
    auto it = std::upper_bound(
        pulses->begin(), pulses->end(), time,
        [](double value, const TorquePulse& p) { return value < p.start; });
    if (it == pulses->begin()) return 0.0;
    const TorquePulse& p = *(it - 1);
    return time < p.end ? p.torque : 0.0;
  };
}

std::optional<sim::ZohSignal> make_torque_signal(FaultInjector& injector,
                                                 double duration_s) {
  const std::vector<TorquePulse> pulses =
      draw_torque_pulses(injector, duration_s);
  if (pulses.empty()) return std::nullopt;
  // The closure's rule: the latest pulse started holds until its end.
  sim::ZohSignal torque(0.0);
  for (std::size_t i = 0; i < pulses.size(); ++i) {
    torque.set(sim::from_seconds(pulses[i].start), pulses[i].torque);
    if (i + 1 == pulses.size() || pulses[i + 1].start > pulses[i].end) {
      torque.set(sim::from_seconds(pulses[i].end), 0.0);
    }
  }
  return torque;
}

void wire_pil(FaultInjector& injector, pil::PilSession& session) {
  const FaultPlan& plan = injector.plan();
  wire_serial_channel(injector, session.link().a_to_b());
  wire_serial_channel(injector, session.link().b_to_a());

  const double truncate = plan.pil_truncate_rate;
  const double delay =
      plan.pil_delay_max_s > 0.0 ? plan.pil_delay_rate : 0.0;
  if (truncate > 0.0 || delay > 0.0) {
    FaultInjector::Site& site = injector.site("pil.host_tx");
    const double delay_max_s = plan.pil_delay_max_s;
    session.host().set_tx_fault_hook(
        [&site, truncate, delay, delay_max_s](std::size_t frame_len) {
          pil::HostEndpoint::TxFault fault;
          const double total = truncate + delay;
          if (!site.fire(total)) return fault;
          if (site.uniform(0.0, total) < truncate) {
            fault.truncate_to = static_cast<std::size_t>(
                site.next_u64() % static_cast<std::uint64_t>(frame_len));
          } else {
            fault.delay =
                sim::from_seconds(site.uniform(0.0, delay_max_s));
          }
          return fault;
        });
  }
  if (truncate > 0.0) {
    FaultInjector::Site& site = injector.site("pil.target_tx");
    session.agent().set_tx_fault_hook(
        [&site, truncate](std::size_t frame_len) -> std::size_t {
          if (!site.fire(truncate)) return frame_len;
          return static_cast<std::size_t>(
              site.next_u64() % static_cast<std::uint64_t>(frame_len));
        });
  }
}

}  // namespace iecd::fault
