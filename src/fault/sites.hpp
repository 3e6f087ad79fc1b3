/// \file sites.hpp
/// Wiring helpers binding a FaultInjector's sites onto the simulator's
/// existing seams: serial byte faults, CAN frame faults, PIL frame
/// truncation/delay, interrupt-latency spikes, task overruns, ADC
/// stuck-at/noise, encoder glitches and load-torque disturbance pulses.
///
/// Every helper is rate-gated: when the plan's rates for its seam are all
/// zero it installs NO hook and creates NO site, so a zero-rate campaign
/// run stays bit-identical to a run with no fault subsystem attached.
/// Site names are stable ("serial.<channel>", "can.<bus>", "pil.host_tx",
/// "pil.target_tx", "mcu.irq", "rt.task", "adc.<adc>", "encoder.<enc>",
/// "plant.torque"): replaying one (campaign seed, site) pair reproduces
/// that site's fault sequence in isolation, independent of every other
/// site and of campaign thread count.
#pragma once

#include <optional>

#include "fault/injector.hpp"
#include "mcu/cpu.hpp"
#include "periph/adc.hpp"
#include "pil/pil_session.hpp"
#include "plant/dc_motor.hpp"
#include "plant/encoder.hpp"
#include "rt/runtime.hpp"
#include "sim/can_bus.hpp"
#include "sim/serial_link.hpp"
#include "sim/zoh_signal.hpp"

namespace iecd::fault {

/// Per-byte corrupt/drop/duplicate on one serial channel; site
/// "serial.<channel name>".
void wire_serial_channel(FaultInjector& injector, sim::SerialChannel& channel);

/// Per-frame corrupt/drop/duplicate on the CAN bus; site "can.<bus name>".
void wire_can_bus(FaultInjector& injector, sim::CanBus& bus);

/// Interrupt-latency spikes on every ISR dispatch; site "mcu.irq".
void wire_cpu(FaultInjector& injector, mcu::Cpu& cpu);

/// Task-overrun cycles on every periodic-step activation (timer-driven and
/// PIL paths alike); site "rt.task".
void wire_runtime(FaultInjector& injector, rt::Runtime& runtime);

/// Stuck-at / noise on every completed conversion; site "adc.<adc name>".
void wire_adc(FaultInjector& injector, periph::AdcPeripheral& adc);

/// Spurious count slips on the quadrature stream; site
/// "encoder.<encoder name>".
void wire_encoder(FaultInjector& injector, plant::IncrementalEncoder& encoder);

/// Pre-generated disturbance-pulse schedule over [0, duration_s] as a
/// LoadTorque for DcMotorBlock::set_load; site "plant.torque".  Returns
/// null (leave the plant's load untouched) when the plan schedules no
/// pulses.
plant::LoadTorque make_load_torque(FaultInjector& injector, double duration_s);

/// The same schedule, drawn the same way, as a held torque [N m] for
/// DcMotorSim::load_from; nullopt when the plan schedules no pulses.
std::optional<sim::ZohSignal> make_torque_signal(FaultInjector& injector,
                                                 double duration_s);

/// Full PIL wiring: byte faults on both link directions plus frame
/// truncation/delay on the host sends ("pil.host_tx") and truncation on
/// the board's responses ("pil.target_tx").
void wire_pil(FaultInjector& injector, pil::PilSession& session);

}  // namespace iecd::fault
