/// \file nodes.hpp
/// Standard co-simulation node kinds for networked-servo topologies:
///
///   * ServoNode — full MCU fidelity.  One WorldComponent holding an MCU
///     with QDEC + PWM + timer + CAN beans, its local DC motor and
///     incremental encoder, and a self-contained 1 kHz SpeedLoop; the
///     set-point arrives over CAN (supervisor command frames) and the node
///     periodically broadcasts a status frame.  The loop has the Section 7
///     servo's structure (speed estimate, moving average, anti-windup PI)
///     but filters over 4 taps where the model filters over 8, so farm
///     results are close to the single-node case study, not identical.
///   * SupervisorNode — model fidelity (MultiCoSim's lightweight swap): no
///     MCU, no world; broadcasts the set-point on a fixed period and
///     tracks per-node status freshness (a node whose status stops
///     arriving is flagged stale — the farm's node-kill detector).
///   * TrafficGenNode — model fidelity: fixed-rate background chatter at a
///     high-priority ID, the networked-control "loaded bus" stressor.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "beans/bean_project.hpp"
#include "beans/can_bean.hpp"
#include "beans/pwm_bean.hpp"
#include "beans/quad_dec_bean.hpp"
#include "beans/timer_int_bean.hpp"
#include "cosim/bus.hpp"
#include "cosim/component.hpp"
#include "mcu/mcu.hpp"
#include "obs/monitor.hpp"
#include "plant/dc_motor.hpp"
#include "plant/encoder.hpp"
#include "util/diagnostics.hpp"

namespace iecd::cosim {

/// The hand-written MCU speed loop, the one both networked servo ISRs run
/// (ServoNode's control tick and run_distributed_servo's controller node):
/// the wrapped 16-bit decoder count difference scaled to rad/s, a 4-tap
/// moving average, and a PI on a [0, 1] duty with back-calculation
/// anti-windup.  One step() per control tick; the state is the
/// application's statics.
class SpeedLoop {
 public:
  /// \p period_s is the period the firmware believes it runs at; the speed
  /// estimate and the integrator are both calibrated from it.
  SpeedLoop(double kp, double ki, double period_s, int encoder_lines)
      : kp_(kp),
        ki_(ki),
        period_s_(period_s),
        speed_gain_(2.0 * std::numbers::pi /
                    (encoder_lines * 4.0 * period_s)) {}

  /// One control tick on the latched decoder \p position.
  void step(std::int16_t position, double setpoint) {
    const double counts = static_cast<double>(position);
    double speed = 0.0;
    if (have_prev_) {
      speed = std::remainder(counts - prev_counts_, 65536.0) * speed_gain_;
    }
    prev_counts_ = counts;
    have_prev_ = true;
    filt_[filt_idx_ & 3] = speed;
    ++filt_idx_;
    smoothed_ = (filt_[0] + filt_[1] + filt_[2] + filt_[3]) / 4.0;

    const double error = setpoint - smoothed_;
    const double unsat = kp_ * error + integral_;
    duty_ = std::clamp(unsat, 0.0, 1.0);
    integral_ += ki_ * period_s_ *
                 (error + (duty_ - unsat) / std::max(kp_, 1e-9));
  }

  /// Filtered speed estimate [rad/s] after the last step().
  double smoothed() const { return smoothed_; }
  /// Duty command [0, 1] after the last step().
  double duty() const { return duty_; }
  /// Integrator state after the last step().
  double integral() const { return integral_; }

 private:
  double kp_;
  double ki_;
  double period_s_;
  double speed_gain_;
  double prev_counts_ = 0.0;
  bool have_prev_ = false;
  double filt_[4] = {0, 0, 0, 0};
  int filt_idx_ = 0;
  double smoothed_ = 0.0;
  double integral_ = 0.0;
  double duty_ = 0.0;
};

/// Little-endian 16-bit field codec shared by the farm and rig frames.
inline void put_u16(sim::CanPayload& data, std::uint16_t v) {
  data.push_back(static_cast<std::uint8_t>(v & 0xFF));
  data.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline std::uint16_t get_u16(const sim::CanPayload& data,
                             std::size_t offset) {
  return static_cast<std::uint16_t>(data[offset] | (data[offset + 1] << 8));
}

/// Validates \p project and throws std::runtime_error naming \p node if
/// it, or the property writes that configured it (\p writes), reported an
/// error.  A node never runs on a bean that rejected its configuration.
void require_valid(const std::string& node, beans::BeanProject& project,
                   util::DiagnosticList writes);

/// Frame-ID plan shared by the farm nodes.  Command frames outrank status
/// frames which outrank nothing; background chatter (TrafficGenNode)
/// normally outranks everything, matching the E10 convention.
struct ServoNodeConfig {
  double period_s = 0.001;  ///< control period
  double kp = 0.004;
  double ki = 0.12;
  int encoder_lines = 100;
  plant::DcMotorParams motor;
  /// Supervisor set-point broadcast (fixed-point 8.8 rad/s payload).
  std::uint32_t command_frame_id = 0x040;
  /// Status frame ID of node k is status_frame_base + k.
  std::uint32_t status_frame_base = 0x300;
  /// Broadcast a status frame every this many control ticks.
  int status_divider = 10;
  /// Timer-period stretch applied to a degraded node (>= 1).  The node
  /// calibrates its speed estimate from the stretched period (a degraded
  /// CPU runs the same firmware, just slower), so degradation costs
  /// transient quality, not steady-state accuracy.
  double period_factor = 1.0;
};

/// Full-fidelity servo node: MCU + beans + local plant in a private world.
class ServoNode : public WorldComponent {
 public:
  ServoNode(std::string name, std::size_t index, const ServoNodeConfig& config,
            SharedCanBus& bus);

  std::size_t index() const { return index_; }
  const ServoNodeConfig& config() const { return config_; }

  /// Effective (possibly degraded) control period.
  double period_s() const { return period_s_; }

  /// Schedules the node's death at \p when: the control timer is disabled
  /// and the PWM output forced to zero — status frames stop, the motor
  /// coasts down, and the supervisor's staleness detector must notice.
  void kill_at(sim::SimTime when);

  /// Fault seam: the node's encoder (site "encoder.<node name>").
  plant::IncrementalEncoder& encoder() { return *encoder_; }

  /// Observability seam: activations recorded as (release, start, end)
  /// per control tick.
  void set_monitor(obs::TimingMonitor* monitor) { monitor_ = monitor; }

  double setpoint() const { return setpoint_; }
  /// True shaft speed at the node's current local time.
  double current_speed() const { return motor_->speed_at(world().now()); }
  std::uint64_t control_ticks() const { return control_ticks_; }
  std::uint64_t status_frames_sent() const { return status_sent_; }
  std::uint64_t command_frames_seen() const { return commands_seen_; }
  bool killed() const { return killed_; }
  bool degraded() const { return config_.period_factor > 1.0; }

 private:
  std::size_t index_;
  ServoNodeConfig config_;
  double period_s_ = 0.0;

  mcu::Mcu mcu_;
  beans::BeanProject project_;
  beans::QuadDecBean* qd_ = nullptr;
  beans::PwmBean* pwm_ = nullptr;
  beans::TimerIntBean* timer_ = nullptr;
  beans::CanBean* can_ = nullptr;
  std::unique_ptr<plant::DcMotorSim> motor_;
  std::unique_ptr<plant::IncrementalEncoder> encoder_;

  obs::TimingMonitor* monitor_ = nullptr;

  // The MCU application's statics.
  double setpoint_ = 0.0;
  SpeedLoop loop_;

  std::uint64_t control_ticks_ = 0;
  std::uint64_t status_sent_ = 0;
  std::uint64_t commands_seen_ = 0;
  std::uint8_t status_seq_ = 0;
  bool killed_ = false;
  sim::SimTime release_ = 0;
  sim::SimTime body_start_ = 0;
};

/// Model-fidelity supervisor: broadcasts the set-point, watches status
/// freshness.  Lives directly on the negotiated timeline (no world).
class SupervisorNode : public Component {
 public:
  struct Config {
    double command_period_s = 0.01;  ///< set-point rebroadcast period
    double setpoint = 100.0;         ///< [rad/s] after setpoint_time
    double setpoint_time = 0.05;
    std::uint32_t command_frame_id = 0x040;
    std::uint32_t status_frame_base = 0x300;
    /// A node is stale when now - last status exceeds this.
    double stale_timeout_s = 0.05;
  };

  SupervisorNode(std::string name, Config config, SharedCanBus& bus,
                 std::size_t servo_nodes);

  const std::string& name() const override { return name_; }
  sim::SimTime horizon() const override { return next_command_; }
  void advance_to(sim::SimTime t) override;

  std::uint64_t commands_sent() const { return commands_sent_; }
  std::uint64_t statuses_seen() const { return statuses_seen_; }
  /// Last status arrival per servo node index (0 = never seen).
  sim::SimTime last_status(std::size_t node) const {
    return last_status_[node];
  }
  /// Nodes whose status is stale at \p now (the kill detector).
  std::vector<std::size_t> stale_nodes(sim::SimTime now) const;

 private:
  void on_status(const sim::CanFrame& frame, sim::SimTime when);

  std::string name_;
  Config config_;
  SharedCanBus* bus_;
  sim::CanBus::NodeId port_ = -1;
  sim::SimTime now_ = 0;
  sim::SimTime next_command_ = 0;
  sim::SimTime command_interval_ = 0;
  std::uint64_t commands_sent_ = 0;
  std::uint64_t statuses_seen_ = 0;
  std::vector<sim::SimTime> last_status_;
};

/// Model-fidelity background chatter: transmits one fixed frame at a fixed
/// rate.  Replicates the E10 monolithic chatter node exactly (first frame
/// one interval in, then every interval, send counted per attempt).
class TrafficGenNode : public Component {
 public:
  struct Config {
    std::uint32_t frame_id = 0x050;  ///< wins arbitration by default
    double frames_per_s = 0.0;       ///< 0 = silent (horizon kNever)
    std::uint8_t fill = 0xAA;
    std::size_t payload_len = 8;
  };

  TrafficGenNode(std::string name, Config config, SharedCanBus& bus);

  const std::string& name() const override { return name_; }
  sim::SimTime horizon() const override { return next_send_; }
  void advance_to(sim::SimTime t) override;

  std::uint64_t sent() const { return sent_; }

 private:
  std::string name_;
  Config config_;
  SharedCanBus* bus_;
  sim::CanBus::NodeId port_ = -1;
  sim::SimTime interval_ = 0;
  sim::SimTime next_send_ = sim::kNever;
  std::uint64_t sent_ = 0;
};

}  // namespace iecd::cosim
