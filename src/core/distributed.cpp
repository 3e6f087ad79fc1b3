#include "core/distributed.hpp"

#include <cmath>
#include <map>
#include <optional>

#include "cosim/master.hpp"
#include "cosim/nodes.hpp"
#include "periph/pwm.hpp"
#include "util/latency_histogram.hpp"

namespace iecd::core {

// The rig runs on the co-simulation master (src/cosim/) as a 2-component
// topology plus background chatter:
//
//   plant_rig  : sensor MCU + actuator MCU + motor + encoder + probe (the
//                tightly coupled physical side stays in ONE world, so the
//                PWM->motor and shaft->QDEC couplings never cross a
//                boundary)
//   controller : the controller MCU alone
//   chatter    : lightweight traffic generator (model fidelity)
//
// The only cross-component interaction is CAN frames over the shared-bus
// coupling; the step-negotiation loop advances each component exactly to
// the global next-event time, so every ISR, frame delivery and probe fires
// at the same absolute instant as in the former monolithic single-world
// implementation — the distributed regression test locks the metrics to
// the monolithic goldens bit-for-bit.
DistributedResult run_distributed_servo(const DistributedConfig& config) {
  util::DiagnosticList rules;
  rules.require(std::isfinite(config.duration_s) && config.duration_s >= 0,
                "duration_s", "finite and >= 0", config.duration_s);
  rules.merge(cosim::SharedCanBus::validate(config.can_bitrate, "can_bitrate"));
  cosim::require_valid("distributed servo rig", std::move(rules));

  cosim::SharedCanBus bus("can0", config.can_bitrate);
  cosim::WorldComponent rig("plant_rig");
  cosim::WorldComponent ctrl_component("controller");
  sim::World& rig_world = rig.world();
  sim::World& ctrl_world = ctrl_component.world();

  const auto& derivative = mcu::find_derivative(mcu::kDefaultDerivative);
  mcu::Mcu sensor_mcu(rig_world, derivative, "sensor_node");
  mcu::Mcu ctrl_mcu(ctrl_world, derivative, "controller_node");
  mcu::Mcu act_mcu(rig_world, derivative, "actuator_node");

  // --- Sensor node: QDEC + periodic broadcast -------------------------
  beans::BeanProject sensor_project("sensor");
  auto& qd = sensor_project.add<beans::QuadDecBean>("QD1");
  auto& timer = sensor_project.add<beans::TimerIntBean>("TI1");
  auto& sensor_can = sensor_project.add<beans::CanBean>("CAN1");
  util::DiagnosticList sensor_writes;
  qd.set_property("encoder_lines",
                  static_cast<std::int64_t>(config.encoder_lines),
                  sensor_writes);
  timer.set_property("period_s", config.period_s, sensor_writes);
  cosim::require_valid("distributed sensor node", sensor_project,
                       std::move(sensor_writes));
  sensor_project.bind(sensor_mcu);
  bus.attach_controller(*sensor_can.peripheral());  // bus node 0

  // Latency instrumentation (simulation-side, not application code).
  // A loop misses when it takes longer than one sampling period; misses
  // are counted as they are recorded, so the count stays exact.
  std::map<std::uint8_t, sim::SimTime> sample_sent_at;
  util::LatencyHistogram loop_latency_us;
  const double deadline_us = config.period_s * 1e6;
  std::uint64_t loop_deadline_misses = 0;

  std::uint8_t sensor_seq = 0;
  std::int16_t sensor_pos = 0;
  mcu::IsrHandler sensor_tick;
  sensor_tick.name = "sensor_tick";
  sensor_tick.body = [&]() -> std::uint64_t {
    sensor_pos = qd.GetPosition();
    return 120;  // read + pack
  };
  sensor_tick.commit = [&] {
    sim::CanFrame frame;
    frame.id = DistributedConfig::kSensorFrameId;
    cosim::put_u16(frame.data, static_cast<std::uint16_t>(sensor_pos));
    frame.data.push_back(sensor_seq);
    sample_sent_at[sensor_seq] = rig_world.now();
    ++sensor_seq;
    sensor_can.SendFrame(frame);
  };
  timer.set_event_handler("OnInterrupt", std::move(sensor_tick));

  // --- Controller node: speed estimation + PI over CAN ---------------
  beans::BeanProject ctrl_project("controller");
  auto& ctrl_can = ctrl_project.add<beans::CanBean>("CAN1");
  util::DiagnosticList ctrl_writes;
  ctrl_can.set_property(
      "acceptance_id",
      static_cast<std::int64_t>(DistributedConfig::kSensorFrameId),
      ctrl_writes);
  ctrl_can.set_property("acceptance_mask", std::int64_t{0x7FF}, ctrl_writes);
  const batch::SpeedPiParams loop_params{config.kp, config.ki, config.period_s,
                                         config.encoder_lines};
  ctrl_writes.merge(batch::validate(loop_params));
  ctrl_writes.require(std::isfinite(config.setpoint), "setpoint", "finite",
                      config.setpoint);
  ctrl_writes.require(std::isfinite(config.setpoint_time), "setpoint_time",
                      "finite", config.setpoint_time);
  cosim::require_valid("distributed controller node", ctrl_project,
                       std::move(ctrl_writes));
  ctrl_project.bind(ctrl_mcu);
  bus.attach_controller(*ctrl_can.peripheral());  // bus node 1

  batch::SpeedPi loop(loop_params);
  std::uint8_t ctrl_seq = 0;

  mcu::IsrHandler ctrl_rx;
  ctrl_rx.name = "ctrl_rx";
  ctrl_rx.body = [&]() -> std::uint64_t {
    const auto frame = ctrl_can.ReadFrame();
    if (!frame || frame->data.size() < 3) return 60;
    ctrl_seq = frame->data[2];
    const double t = sim::to_seconds(ctrl_world.now());
    const double sp = t >= config.setpoint_time ? config.setpoint : 0.0;
    loop.step(static_cast<std::int16_t>(cosim::get_u16(frame->data, 0)), sp);
    return 900;  // speed estimate + PI in software floating point
  };
  ctrl_rx.commit = [&] {
    sim::CanFrame frame;
    frame.id = DistributedConfig::kActuatorFrameId;
    cosim::put_u16(frame.data, periph::duty_to_ratio16(loop.duty()));
    frame.data.push_back(ctrl_seq);
    ctrl_can.SendFrame(frame);
  };
  ctrl_can.set_event_handler("OnReceive", std::move(ctrl_rx));

  // --- Actuator node: PWM drive --------------------------------------
  beans::BeanProject act_project("actuator");
  auto& pwm = act_project.add<beans::PwmBean>("PWM1");
  auto& act_can = act_project.add<beans::CanBean>("CAN1");
  util::DiagnosticList act_writes;
  act_can.set_property(
      "acceptance_id",
      static_cast<std::int64_t>(DistributedConfig::kActuatorFrameId),
      act_writes);
  act_can.set_property("acceptance_mask", std::int64_t{0x7FF}, act_writes);
  cosim::require_valid("distributed actuator node", act_project,
                       std::move(act_writes));
  act_project.bind(act_mcu);
  bus.attach_controller(*act_can.peripheral());  // bus node 2
  pwm.Enable();

  std::uint16_t duty_raw = 0;
  std::uint8_t act_seq = 0;
  bool have_frame = false;
  mcu::IsrHandler act_rx;
  act_rx.name = "act_rx";
  act_rx.body = [&]() -> std::uint64_t {
    const auto frame = act_can.ReadFrame();
    have_frame = frame.has_value() && frame->data.size() >= 3;
    if (have_frame) {
      duty_raw = cosim::get_u16(frame->data, 0);
      act_seq = frame->data[2];
    }
    return 90;
  };
  act_rx.commit = [&] {
    if (!have_frame) return;
    pwm.SetRatio16(duty_raw);
    const auto it = sample_sent_at.find(act_seq);
    if (it != sample_sent_at.end()) {
      const double us = sim::to_microseconds(rig_world.now() - it->second);
      loop_latency_us.record(us);
      if (us > deadline_us) ++loop_deadline_misses;
      sample_sent_at.erase(it);
    }
  };
  act_can.set_event_handler("OnReceive", std::move(act_rx));

  // --- Plant: motor on the actuator's PWM, encoder on the sensor ------
  plant::DcMotorSim motor(config.motor);
  motor.drive_from_duty(&pwm.peripheral()->average_output());
  plant::IncrementalEncoder encoder(rig_world, motor, *qd.peripheral(),
                                    {config.encoder_lines});
  encoder.start();

  // --- Background chatter (higher-priority frames) --------------------
  std::optional<cosim::TrafficGenNode> chatter;
  if (config.background_frames_per_s != 0.0) {
    cosim::TrafficGenNode::Config traffic;
    traffic.frames_per_s = config.background_frames_per_s;
    chatter.emplace("chatter", traffic, bus);  // bus node 3
  }

  // --- Probe + run ----------------------------------------------------
  DistributedResult result;
  const sim::SimTime period = sim::from_seconds(config.period_s);
  rig_world.queue().schedule_every(period, [&rig_world, &motor, &result] {
    result.speed.record(sim::to_seconds(rig_world.now()),
                        motor.speed_at(rig_world.now()));
  });

  timer.Enable();

  cosim::Master master;
  master.add_coupling(bus);
  master.add(rig);
  master.add(ctrl_component);
  if (chatter) master.add(*chatter);
  const cosim::MasterStats stats =
      master.run_until(sim::from_seconds(config.duration_s));

  result.metrics = model::analyze_step(result.speed, config.setpoint,
                                       config.setpoint_time);
  result.iae =
      model::integral_absolute_error(result.speed, config.setpoint);
  result.events_executed = stats.events_executed;
  result.frames_delivered = bus.can().stats().frames_delivered;
  result.sensor_frames = sensor_can.peripheral()->frames_sent();
  result.actuator_frames = ctrl_can.peripheral()->frames_sent();
  result.background_frames = chatter ? chatter->sent() : 0;
  result.controller_rx_overruns = ctrl_can.peripheral()->overruns();
  result.bus_utilisation =
      bus.can().stats().utilisation(sim::from_seconds(config.duration_s));
  result.loop_latency_us_mean = loop_latency_us.mean();
  result.loop_latency_us_max = loop_latency_us.max();
  result.loop_latency_us_p99 = loop_latency_us.percentile(99.0);
  result.loop_samples = loop_latency_us.count();
  result.loop_deadline_misses = loop_deadline_misses;
  return result;
}

}  // namespace iecd::core
