#include "core/case_study.hpp"

#include <cmath>
#include <numbers>
#include <optional>

#include "blocks/custom.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/routing.hpp"
#include "beans/pwm_bean.hpp"
#include "beans/serial_bean.hpp"
#include "fault/sites.hpp"
#include "fixpt/autoscale.hpp"
#include "mcu/mcu.hpp"
#include "periph/quadrature_decoder.hpp"
#include "sim/world.hpp"

namespace iecd::core {

using blocks::ConstantBlock;
using blocks::DiscretePidBlock;
using blocks::FunctionBlock;
using blocks::GainBlock;
using blocks::MovingAverageBlock;
using blocks::ScopeBlock;
using blocks::StepBlock;
using blocks::SumBlock;
using blocks::SwitchBlock;
using blocks::UnitDelayBlock;

util::DiagnosticList validate(const ServoConfig& config) {
  util::DiagnosticList d;
  d.merge(batch::validate({config.kp, config.ki, config.period_s,
                           config.encoder_lines, config.speed_filter_taps}),
          "servo.");
  d.require(config.pwm_frequency_hz > 0 &&
                std::isfinite(config.pwm_frequency_hz),
            "servo.pwm_frequency_hz", "positive", config.pwm_frequency_hz);
  d.require(config.duration_s >= 0 && std::isfinite(config.duration_s),
            "servo.duration_s", ">= 0", config.duration_s);
  d.require(std::isfinite(config.setpoint), "servo.setpoint", "finite",
            config.setpoint);
  d.require(std::isfinite(config.setpoint_time), "servo.setpoint_time",
            "finite", config.setpoint_time);
  d.merge(plant::validate(config.motor), "servo.");
  return d;
}

std::int64_t pwm_modulo(const ServoConfig& config) {
  beans::PwmBean pwm("PWM1");
  util::DiagnosticList diagnostics;
  pwm.set_property("frequency_hz", config.pwm_frequency_hz, diagnostics);
  pwm.validate(mcu::find_derivative(config.derivative), diagnostics);
  return pwm.properties().get_int("modulo");
}

ServoSystem::ServoSystem(ServoConfig config)
    : config_(std::move(config)),
      top_("servo_top"),
      project_("servo", config_.derivative) {
  controller_ = &top_.add<model::Subsystem>("controller", 1, 1);
  controller_->set_sample_time(model::SampleTime::discrete(config_.period_s));
  plant_ = &top_.add<model::Subsystem>("plant", 1, 2);
  plant_->set_sample_time(model::SampleTime::continuous());
  plant_->set_direct_feedthrough(false);

  sync_ = std::make_unique<ModelSync>(controller_->inner(), project_);

  build_controller();
  build_plant();

  // Close the single-model loop: plant angle -> controller, controller
  // duty -> plant.
  top_.connect(*plant_, 0, *controller_, 0);
  top_.connect(*controller_, 0, *plant_, 0);

  speed_scope_ = &top_.add<ScopeBlock>("speed_scope");
  duty_scope_ = &top_.add<ScopeBlock>("duty_scope");
  speed_scope_->set_sample_time(model::SampleTime::discrete(config_.period_s));
  duty_scope_->set_sample_time(model::SampleTime::discrete(config_.period_s));
  top_.connect(*plant_, 1, *speed_scope_, 0);
  top_.connect(*controller_, 0, *duty_scope_, 0);

  if (!config_.mil_hw_fidelity) {
    qdec_block_->set_hw_fidelity(false);
    pwm_block_->set_hw_fidelity(false);
  }
  if (config_.fixed_point) apply_fixed_point_types();
}

void ServoSystem::build_controller() {
  model::Model& m = controller_->inner();
  auto& angle_in = m.add<model::Inport>("angle_in");
  auto& duty_out = m.add<model::Outport>("duty_out");

  // PE blocks enter through the synchronisation layer: each insertion
  // creates the corresponding bean in the PE project.
  timer_block_ = &sync_->add_timer_int("TI1");
  qdec_block_ = &sync_->add_quad_dec("QD1");
  pwm_block_ = &sync_->add_pwm("PWM1");
  key_mode_ = &sync_->add_bit_io("KeyMode");
  key_up_ = &sync_->add_bit_io("KeyUp");
  project_.add<beans::SerialBean>("AS1");  // PIL communication channel

  util::DiagnosticList diags;
  project_.set_property("TI1", "period_s", config_.period_s);
  project_.set_property("PWM1", "frequency_hz", config_.pwm_frequency_hz);
  project_.set_property("QD1", "encoder_lines",
                        static_cast<std::int64_t>(config_.encoder_lines));
  project_.set_property("KeyMode", "pin", std::int64_t{2});
  project_.set_property("KeyUp", "pin", std::int64_t{3});
  project_.set_property("KeyUp", "edge", std::string("rising"));

  // Speed from the position register: wrapped 16-bit difference per
  // sample, scaled to rad/s, smoothed by a short moving average.
  auto& prev = m.add<UnitDelayBlock>("prev_cnt", 0.0);
  auto& diff = m.add<FunctionBlock>(
      "cnt_diff", 2, [](const std::vector<double>& u, double) {
        return periph::count_delta(u[0], u[1]);
      });
  {
    mcu::OpCounts ops;
    ops.alu16 = 3;
    ops.mem = 2;
    diff.set_step_ops(ops);
  }
  const double cpr = static_cast<double>(config_.encoder_lines * 4);
  auto& spd_gain = m.add<GainBlock>(
      "spd_gain", 2.0 * std::numbers::pi / (cpr * config_.period_s));
  auto& spd_filt =
      m.add<MovingAverageBlock>("spd_filt", config_.speed_filter_taps);

  // Set-point: base step plus the keyboard-accumulated offset.
  setpoint_ = &m.add<StepBlock>("sp", config_.setpoint_time, 0.0,
                                config_.setpoint);

  sp_up_ = &m.add<model::FunctionCallSubsystem>("SpUp", 0, 1);
  {
    model::Model& f = sp_up_->inner();
    auto& inc = f.add<ConstantBlock>("inc", 10.0);
    auto& acc = f.add<UnitDelayBlock>("acc", 0.0);
    auto& add = f.add<SumBlock>("add", "++");
    auto& out = f.add<model::Outport>("offset");
    f.connect(inc, 0, add, 0);
    f.connect(acc, 0, add, 1);
    f.connect(add, 0, acc, 0);
    f.connect(acc, 0, out, 0);
    sp_up_->bind_ports({}, {&out});
  }
  key_up_->bind_event("OnInterrupt", *sp_up_);

  // Manual/automatic mode chart driven by the mode key.
  mode_chart_ = &m.add<model::StateChart>("mode", 1, 1);
  mode_chart_->add_state(
      "automatic",
      [](const model::StateChart::ChartContext& c) { c.set_out(0, 1.0); });
  mode_chart_->add_state(
      "manual",
      [](const model::StateChart::ChartContext& c) { c.set_out(0, 0.0); });
  mode_chart_->add_transition(
      "automatic", "manual",
      [](const model::StateChart::ChartContext& c) { return c.in(0) > 0.5; });
  mode_chart_->add_transition(
      "manual", "automatic",
      [](const model::StateChart::ChartContext& c) { return c.in(0) < 0.5; });

  auto& err = m.add<SumBlock>("err", "++-");
  pid_ = &m.add<DiscretePidBlock>(
      "pi", DiscretePidBlock::Gains{config_.kp, config_.ki, 0.0, 10.0}, 0.0,
      1.0);
  auto& manual = m.add<ConstantBlock>("manual_duty", config_.manual_duty);
  auto& mode_sw = m.add<SwitchBlock>("mode_sw", 0.5);

  // MIL stimulus for the key inputs (not pressed).
  auto& key_mode_src = m.add<ConstantBlock>("key_mode_src", 0.0);
  auto& key_up_src = m.add<ConstantBlock>("key_up_src", 0.0);

  m.connect(angle_in, 0, *qdec_block_, 0);
  m.connect(*qdec_block_, 0, prev, 0);
  m.connect(*qdec_block_, 0, diff, 0);
  m.connect(prev, 0, diff, 1);
  m.connect(diff, 0, spd_gain, 0);
  m.connect(spd_gain, 0, spd_filt, 0);
  m.connect(*setpoint_, 0, err, 0);
  m.connect(*sp_up_, 0, err, 1);
  m.connect(spd_filt, 0, err, 2);
  m.connect(err, 0, *pid_, 0);
  m.connect(key_mode_src, 0, *key_mode_, 0);
  m.connect(key_up_src, 0, *key_up_, 0);
  m.connect(*key_mode_, 0, *mode_chart_, 0);
  m.connect(*pid_, 0, mode_sw, 0);
  m.connect(*mode_chart_, 0, mode_sw, 1);
  m.connect(manual, 0, mode_sw, 2);
  m.connect(mode_sw, 0, *pwm_block_, 0);
  m.connect(*pwm_block_, 0, duty_out, 0);

  controller_->bind_ports({&angle_in}, {&duty_out});
}

void ServoSystem::build_plant() {
  model::Model& m = plant_->inner();
  auto& duty_in = m.add<model::Inport>("duty_in");
  auto& drive = m.add<GainBlock>("drive", config_.motor.supply_voltage);
  motor_block_ = &m.add<plant::DcMotorBlock>("motor", config_.motor);
  auto& angle_out = m.add<model::Outport>("angle_out");
  auto& speed_out = m.add<model::Outport>("speed_out");
  drive.set_sample_time(model::SampleTime::continuous());
  m.connect(duty_in, 0, drive, 0);
  m.connect(drive, 0, *motor_block_, 0);
  m.connect(*motor_block_, 1, angle_out, 0);
  m.connect(*motor_block_, 0, speed_out, 0);
  plant_->bind_ports({&duty_in}, {&angle_out, &speed_out});
}

void ServoSystem::apply_fixed_point_types() {
  // Simulink-style fixed-point design: pick 16-bit formats from the signal
  // ranges the design is specified for (paper Section 7).
  model::Model& m = controller_->inner();
  const double max_speed =
      config_.motor.supply_voltage * config_.motor.kt /
      (config_.motor.resistance * config_.motor.damping +
       config_.motor.kt * config_.motor.ke);  // no-load speed bound
  const auto speed_fmt =
      fixpt::choose_format({-max_speed * 1.2, max_speed * 1.2}, 16);
  const auto duty_fmt = fixpt::choose_format({-1.0, 1.0}, 16);
  const double max_diff =
      max_speed / (2.0 * std::numbers::pi) * 400.0 * config_.period_s * 2.0;
  const auto diff_fmt = fixpt::choose_format({-max_diff, max_diff}, 16);

  m.find("cnt_diff")->set_output_type(0, model::DataType::kFixed, diff_fmt);
  m.find("spd_gain")->set_output_type(0, model::DataType::kFixed, speed_fmt);
  m.find("spd_filt")->set_output_type(0, model::DataType::kFixed, speed_fmt);
  m.find("sp")->set_output_type(0, model::DataType::kFixed, speed_fmt);
  m.find("err")->set_output_type(0, model::DataType::kFixed, speed_fmt);
  m.find("pi")->set_output_type(0, model::DataType::kFixed, duty_fmt);
  m.find("mode_sw")->set_output_type(0, model::DataType::kFixed, duty_fmt);
}

util::DiagnosticList ServoSystem::validate() {
  util::DiagnosticList d = core::validate(config_);
  d.merge(project_.validate());
  return d;
}

ServoSystem::MilResult ServoSystem::run_mil() {
  if (const auto d = core::validate(config_); d.has_errors()) {
    throw std::invalid_argument("ServoSystem: invalid config:\n" +
                                d.to_string());
  }
  if (pwm_block_->bean().properties().get_int("modulo") <= 0) {
    throw std::invalid_argument("ServoSystem: PWM1 has no solved modulo "
                                "(frequency not achievable on " +
                                config_.derivative + ")");
  }
  codegen::Generator::restore_mil_mode(*controller_);
  model::EngineOptions options;
  options.stop_time = config_.duration_s;
  model::Engine engine(top_, options);
  engine.run();

  MilResult result;
  result.speed = speed_scope_->log();
  result.duty = duty_scope_->log();
  result.metrics = model::analyze_step(result.speed, config_.setpoint,
                                       config_.setpoint_time);
  result.iae = model::integral_absolute_error(result.speed, config_.setpoint);
  return result;
}

PeertTarget::BuildResult ServoSystem::build_target(
    const std::string& app_name) {
  return target_.build(*controller_, project_, app_name,
                       config_.fixed_point);
}

ServoSystem::HilResult ServoSystem::run_hil(const HilOptions& options) {
  const double duration =
      options.duration_s > 0 ? options.duration_s : config_.duration_s;

  auto build = build_target("servo_hil");
  if (!build.ok()) {
    throw std::runtime_error("ServoSystem: target build failed:\n" +
                             build.diagnostics.to_string());
  }
  if (options.extra_latency_cycles) {
    build.app.tasks[0].extra_cycles += options.extra_latency_cycles;
  }

  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative(config_.derivative));
  project_.bind(mcu);
  rt::Runtime runtime(mcu, project_, build.app);

  // Peripheral-level plant coupling.  The fault plan's load torque, if
  // any, is declared first so it outlives the plant reading it.
  std::optional<sim::ZohSignal> torque;
  plant::DcMotorSim motor(config_.motor);
  auto* pwm_bean = dynamic_cast<beans::PwmBean*>(project_.find("PWM1"));
  motor.drive_from_duty(&pwm_bean->peripheral()->average_output());
  auto* qdec_bean = dynamic_cast<beans::QuadDecBean*>(project_.find("QD1"));
  plant::IncrementalEncoder encoder(world, motor, *qdec_bean->peripheral(),
                                    {config_.encoder_lines});

  if (options.monitors) {
    runtime.attach_monitors(*options.monitors);
    options.monitors->arm(world, sim::from_seconds(config_.period_s));
  }

  if (options.faults) {
    fault::wire_cpu(*options.faults, mcu.cpu());
    fault::wire_runtime(*options.faults, runtime);
    fault::wire_encoder(*options.faults, encoder);
    torque = fault::make_torque_signal(*options.faults, duration);
    if (torque) motor.load_from(&*torque);
  }

  runtime.start();
  encoder.start();
  if (options.timer_jitter && runtime.timer() &&
      runtime.timer()->peripheral()) {
    runtime.timer()->peripheral()->set_jitter_hook(options.timer_jitter);
  }

  // Keyboard stimulus on the set-point key.
  auto* key_up_bean = dynamic_cast<beans::BitIoBean*>(project_.find("KeyUp"));
  std::unique_ptr<periph::PushButton> button;
  if (!options.key_up_presses.empty() && key_up_bean->port()) {
    button = std::make_unique<periph::PushButton>(*key_up_bean->port(),
                                                  key_up_bean->pin(),
                                                  /*active_low=*/false);
    for (const sim::SimTime when : options.key_up_presses) {
      button->press_at(when, sim::milliseconds(30));
    }
  }

  // Periodic probe recording the true motor speed.
  HilResult result;
  const sim::SimTime period = sim::from_seconds(config_.period_s);
  world.queue().schedule_every(period, [&] {
    result.speed.record(sim::to_seconds(world.now()),
                        motor.speed_at(world.now()));
  });

  world.run_for(sim::from_seconds(duration));
  encoder.flush();

  result.metrics = model::analyze_step(result.speed, config_.setpoint,
                                       config_.setpoint_time);
  result.iae = model::integral_absolute_error(result.speed, config_.setpoint);
  if (const obs::TimingMonitor* step =
          runtime.monitor(runtime.periodic_profile_key())) {
    result.exec_us_mean = step->exec_us().mean();
    result.exec_us_max = step->exec_us().max();
    result.response_us_max = step->worst_response_us();
    result.jitter_us = step->jitter_us().max();
    result.activations = step->activations();
  }
  result.cpu_utilisation =
      static_cast<double>(mcu.cpu().busy_time()) /
      static_cast<double>(sim::from_seconds(duration));
  result.observed_stack_bytes = mcu.cpu().max_stack_bytes();
  result.overruns = mcu.intc().overruns();
  result.memory = build.app.memory;
  for (const auto& [task, monitor] : runtime.monitors().timings()) {
    result.profile_report += monitor.state_line(task) + "\n";
  }
  return result;
}

ServoSystem::PilResult ServoSystem::run_pil(const PilRunOptions& options) {
  const double duration =
      options.duration_s > 0 ? options.duration_s : config_.duration_s;

  codegen::SignalBuffer buffer;
  auto build = target_.build_pil(*controller_, project_, buffer, "servo_pil",
                                 config_.fixed_point);
  if (!build.ok()) {
    throw std::runtime_error("ServoSystem: PIL build failed:\n" +
                             build.diagnostics.to_string());
  }

  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative(config_.derivative));
  project_.bind(mcu);
  rt::Runtime runtime(mcu, project_, build.app);

  // Host-side plant model: the controller subsystem is substituted by the
  // communication endpoint (PEERT_PIL behaviour).
  model::Model host("pil_host");
  auto& duty_cmd = host.add<ConstantBlock>("duty_cmd", 0.0);
  auto& drive = host.add<GainBlock>("drive", config_.motor.supply_voltage);
  drive.set_sample_time(model::SampleTime::continuous());
  auto& motor = host.add<plant::DcMotorBlock>("motor", config_.motor);
  auto& speed_scope = host.add<ScopeBlock>("speed");
  speed_scope.set_sample_time(model::SampleTime::discrete(config_.period_s));
  host.connect(duty_cmd, 0, drive, 0);
  host.connect(drive, 0, motor, 0);
  host.connect(motor, 0, speed_scope, 0);

  model::EngineOptions eopts;
  eopts.stop_time = duration + 1.0;
  eopts.base_period = config_.period_s;
  model::Engine engine(host, eopts);
  engine.initialize();

  auto* serial = dynamic_cast<beans::SerialBean*>(project_.find("AS1"));
  pil::PilSession session(
      world, runtime, *serial, buffer,
      {config_.period_s, duration, options.baud, options.link,
       options.batch, options.recovery});
  if (options.monitors) {
    runtime.attach_monitors(*options.monitors);
    session.set_monitors(options.monitors);
  }
  if (options.faults) {
    fault::wire_cpu(*options.faults, mcu.cpu());
    fault::wire_runtime(*options.faults, runtime);
    fault::wire_pil(*options.faults, session);
  }
  session.set_plant(
      [&](std::vector<double>& out) {
        // Sensor frame: the shaft angle the encoder interface measures.
        out.push_back(motor.out(1).as_double());
      },
      [&](const std::vector<double>& actuators) {
        if (!actuators.empty()) duty_cmd.set_value(actuators[0]);
      },
      [&](double t) { engine.advance_to(t); });

  PilResult result;
  result.report = session.run();
  result.speed = speed_scope.log();
  result.metrics = model::analyze_step(result.speed, config_.setpoint,
                                       config_.setpoint_time);
  result.iae = model::integral_absolute_error(result.speed, config_.setpoint);
  result.report.set_observed_stack_bytes(mcu.cpu().max_stack_bytes());
  return result;
}

}  // namespace iecd::core
