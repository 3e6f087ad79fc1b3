#include "cosim/nodes.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mcu/derivative.hpp"
#include "periph/pwm.hpp"

namespace iecd::cosim {

void require_valid(const std::string& node, util::DiagnosticList diagnostics) {
  if (diagnostics.has_errors()) {
    throw std::runtime_error(node + ": " + diagnostics.to_string());
  }
}

void require_valid(const std::string& node, beans::BeanProject& project,
                   util::DiagnosticList writes) {
  writes.merge(project.validate());
  require_valid(node, std::move(writes));
}

// ----------------------------------------------------------------- ServoNode

ServoNode::ServoNode(std::string name, std::size_t index,
                     const ServoNodeConfig& config, SharedCanBus& bus)
    : WorldComponent(std::move(name)),
      index_(index),
      config_(config),
      // A degraded node runs the same firmware on a stretched timer, and
      // its speed estimate is calibrated from that stretched period —
      // degradation costs loop bandwidth, not steady-state accuracy.
      period_s_(config_.period_s * std::max(1.0, config_.period_factor)),
      mcu_(world(), mcu::find_derivative(mcu::kDefaultDerivative),
           this->name() + "_mcu"),
      project_(this->name()) {
  qd_ = &project_.add<beans::QuadDecBean>("QD1");
  pwm_ = &project_.add<beans::PwmBean>("PWM1");
  timer_ = &project_.add<beans::TimerIntBean>("TI1");
  can_ = &project_.add<beans::CanBean>("CAN1");
  const batch::SpeedPiParams loop{config_.kp, config_.ki, period_s_,
                                  config_.encoder_lines};
  util::DiagnosticList d = batch::validate(loop);
  qd_->set_property("encoder_lines",
                    static_cast<std::int64_t>(config_.encoder_lines), d);
  timer_->set_property("period_s", period_s_, d);
  can_->set_property("acceptance_id",
                     static_cast<std::int64_t>(kCommandFrameId), d);
  can_->set_property("acceptance_mask", std::int64_t{0x7FF}, d);
  require_valid(this->name(), project_, std::move(d));
  loop_.emplace(loop);
  project_.bind(mcu_);
  bus.attach_controller(*can_->peripheral());
  pwm_->Enable();

  motor_ = std::make_unique<plant::DcMotorSim>(config_.motor);
  motor_->drive_from_duty(&pwm_->peripheral()->average_output());
  encoder_ = std::make_unique<plant::IncrementalEncoder>(
      world(), *motor_, *qd_->peripheral(),
      plant::EncoderParams{config_.encoder_lines},
      this->name());
  encoder_->start();

  mcu::IsrHandler tick;
  tick.name = "ctrl_tick";
  tick.body = [this]() -> std::uint64_t {
    release_ += sim::from_seconds(period_s_);
    body_start_ = world().now();
    loop_->step(static_cast<std::int16_t>(qd_->GetPosition()), setpoint_);
    return 900;  // read + speed estimate + PI, software floating point
  };
  tick.commit = [this] {
    pwm_->SetRatio16(periph::duty_to_ratio16(loop_->duty()));
    ++control_ticks_;
    if (control_ticks_ % kStatusDivider == 0) {
      sim::CanFrame frame;
      frame.id = kStatusFrameBase + static_cast<std::uint32_t>(index_);
      const double bounded = std::clamp(loop_->smoothed(), -1000.0, 1000.0);
      put_u16(frame.data, static_cast<std::uint16_t>(
                              static_cast<std::int16_t>(
                                  std::lround(bounded * 16.0))));
      frame.data.push_back(status_seq_);
      ++status_seq_;
      can_->SendFrame(frame);
      ++status_sent_;
    }
    if (monitor_ != nullptr) {
      monitor_->record(release_, body_start_, world().now());
    }
  };
  timer_->set_event_handler("OnInterrupt", std::move(tick));

  mcu::IsrHandler rx;
  rx.name = "cmd_rx";
  rx.body = [this]() -> std::uint64_t {
    const auto frame = can_->ReadFrame();
    if (frame && frame->data.size() >= 2) {
      setpoint_ = static_cast<double>(get_u16(frame->data, 0)) / 256.0;
      ++commands_seen_;
    }
    return 60;
  };
  rx.commit = [] {};
  can_->set_event_handler("OnReceive", std::move(rx));

  timer_->Enable();
}

void ServoNode::kill_at(sim::SimTime when) {
  killed_ = true;  // reporting flag; the event below does the damage
  world().queue().schedule_at(when, [this] {
    timer_->Disable();
    pwm_->SetRatio16(0);
  });
}

// ----------------------------------------------------------- SupervisorNode

SupervisorNode::SupervisorNode(std::string name, Config config,
                               SharedCanBus& bus, std::size_t servo_nodes)
    : name_(std::move(name)), config_(config), bus_(&bus) {
  require_valid(name_, validate(config_));
  port_ = bus.attach_model_port(
      name_, [this](const sim::CanFrame& frame, sim::SimTime when) {
        on_status(frame, when);
      });
  command_interval_ = sim::from_seconds(config_.command_period_s);
  next_command_ = command_interval_;
  last_status_.assign(servo_nodes, 0);
}

util::DiagnosticList SupervisorNode::validate(const Config& c) {
  util::DiagnosticList d;
  d.require(c.setpoint >= 0 && c.setpoint <= 65535.0 / 256.0, "setpoint",
            "within [0, 65535/256]", c.setpoint);
  d.require(std::isfinite(c.setpoint_time), "setpoint_time", "finite",
            c.setpoint_time);
  d.require(std::isfinite(c.command_period_s) &&
                sim::from_seconds(c.command_period_s) > 0,
            "command_period_s", ">= 1 ns", c.command_period_s);
  return d;
}

void SupervisorNode::advance_to(sim::SimTime t) {
  while (next_command_ <= t) {
    now_ = next_command_;
    sim::CanFrame frame;
    frame.id = kCommandFrameId;
    const double sp = sim::to_seconds(now_) >= config_.setpoint_time
                          ? config_.setpoint
                          : 0.0;
    put_u16(frame.data,
            static_cast<std::uint16_t>(std::lround(sp * 256.0)));
    bus_->can().transmit(port_, frame);
    ++commands_sent_;
    next_command_ += command_interval_;
  }
  now_ = t;
}

void SupervisorNode::on_status(const sim::CanFrame& frame, sim::SimTime when) {
  if (frame.id < kStatusFrameBase ||
      frame.id >= kStatusFrameBase + last_status_.size()) {
    return;
  }
  last_status_[frame.id - kStatusFrameBase] = when;
  ++statuses_seen_;
}

std::vector<std::size_t> SupervisorNode::stale_nodes(sim::SimTime now) const {
  const sim::SimTime timeout = sim::from_seconds(config_.stale_timeout_s);
  std::vector<std::size_t> stale;
  for (std::size_t i = 0; i < last_status_.size(); ++i) {
    if (now - last_status_[i] > timeout) stale.push_back(i);
  }
  return stale;
}

// ----------------------------------------------------------- TrafficGenNode

TrafficGenNode::TrafficGenNode(std::string name, Config config,
                               SharedCanBus& bus)
    : name_(std::move(name)), config_(config), bus_(&bus) {
  require_valid(name_, validate(config_));
  // Plain bus node with no receive path — identical wire behaviour to the
  // monolithic E10 chatter node (null rx callback).
  port_ = bus.can().attach_node(name_, nullptr);
  if (config_.frames_per_s > 0.0) {
    interval_ = sim::from_seconds(1.0 / config_.frames_per_s);
    next_send_ = interval_;
  }
}

util::DiagnosticList TrafficGenNode::validate(const Config& c) {
  util::DiagnosticList d;
  d.require(c.frames_per_s == 0.0 ||
                (c.frames_per_s > 0.0 && std::isfinite(c.frames_per_s) &&
                 sim::from_seconds(1.0 / c.frames_per_s) > 0),
            "frames_per_s", "0, or finite with an interval >= 1 ns",
            c.frames_per_s);
  return d;
}

void TrafficGenNode::advance_to(sim::SimTime t) {
  while (next_send_ != sim::kNever && next_send_ <= t) {
    sim::CanFrame frame;
    frame.id = kChatterFrameId;
    frame.data.assign(8, 0xAA);
    bus_->can().transmit(port_, frame);
    ++sent_;  // per attempt, as in the monolithic chatter node
    next_send_ += interval_;
  }
}

}  // namespace iecd::cosim
