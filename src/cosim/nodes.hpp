/// \file nodes.hpp
/// Standard co-simulation node kinds for networked-servo topologies:
///
///   * ServoNode — full MCU fidelity.  One WorldComponent holding an MCU
///     with QDEC + PWM + timer + CAN beans, its local DC motor and
///     incremental encoder, and a 1 kHz control ISR that steps the
///     case-study controller (batch::SpeedPi: the block library's moving
///     average and PI law over kSpeedFilterTaps) under the MCU's
///     cycle-charged timing; the set-point arrives over CAN (supervisor
///     command frames) and the node broadcasts a status frame every
///     kStatusDivider ticks.
///   * SupervisorNode — model fidelity (MultiCoSim's lightweight swap): no
///     MCU, no world; broadcasts the set-point on a fixed period and
///     tracks per-node status freshness (a node whose status stops
///     arriving is flagged stale — the farm's node-kill detector).
///   * TrafficGenNode — model fidelity: fixed-rate background chatter at a
///     high-priority ID, the networked-control "loaded bus" stressor.
///
/// The frame plan (command, status and chatter IDs, the status rate) is a
/// set of constants, not per-node configuration.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "batch/speed_pi.hpp"
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

/// Little-endian 16-bit field codec shared by the farm and rig frames.
inline void put_u16(sim::CanPayload& data, std::uint16_t v) {
  data.push_back(static_cast<std::uint8_t>(v & 0xFF));
  data.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline std::uint16_t get_u16(const sim::CanPayload& data,
                             std::size_t offset) {
  return static_cast<std::uint16_t>(data[offset] | (data[offset + 1] << 8));
}

/// Throws std::runtime_error naming \p node if \p diagnostics holds an
/// error.
void require_valid(const std::string& node, util::DiagnosticList diagnostics);
/// Validates \p project and throws std::runtime_error naming \p node if
/// it, or the property writes that configured it (\p writes), reported an
/// error.  A node never runs on a bean that rejected its configuration.
void require_valid(const std::string& node, beans::BeanProject& project,
                   util::DiagnosticList writes);

// Frame-ID plan shared by the farm nodes and the rig's chatter.  Command
// frames outrank status frames; background chatter (TrafficGenNode)
// outranks everything, matching the E10 convention.

/// Supervisor set-point broadcast (fixed-point 8.8 rad/s payload).
inline constexpr std::uint32_t kCommandFrameId = 0x040;
/// Status frame ID of servo k is kStatusFrameBase + k.
inline constexpr std::uint32_t kStatusFrameBase = 0x300;
/// Background chatter; wins arbitration.
inline constexpr std::uint32_t kChatterFrameId = 0x050;
/// A servo broadcasts a status frame every this many control ticks.
inline constexpr std::uint64_t kStatusDivider = 10;
/// Servos one bus can address: status IDs stay within 11 bits.  Past this,
/// a masked status ID aliases the command ID (0x840 & 0x7FF == 0x040).
inline constexpr std::size_t kMaxServos = 0x800 - kStatusFrameBase;

/// One servo node's controller, motor and timing.
struct ServoNodeConfig {
  double period_s = 0.001;  ///< control period
  double kp = 0.004;
  double ki = 0.12;
  int encoder_lines = 100;
  plant::DcMotorParams motor;
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
  /// The node's quadrature decoder and motor, for probes.
  periph::QuadDecPeripheral& decoder() { return *qd_->peripheral(); }
  const plant::DcMotorSim& motor() const { return *motor_; }

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

  // The MCU application's statics (the loop is built once the node's
  // configuration validated).
  double setpoint_ = 0.0;
  std::optional<batch::SpeedPi> loop_;

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
    /// A node is stale when now - last status exceeds this.
    double stale_timeout_s = 0.05;
  };

  /// Throws std::runtime_error naming the node for a config validate()
  /// rejects.
  SupervisorNode(std::string name, Config config, SharedCanBus& bus,
                 std::size_t servo_nodes);

  /// The config rules: setpoint finite and within [0, 65535 / 256], since
  /// it goes on the wire as lround(setpoint * 256) in a u16; setpoint_time
  /// finite; command_period_s finite and at least one simulation tick
  /// (1 ns), or the broadcast loop would never advance.
  static util::DiagnosticList validate(const Config& config);

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

/// Model-fidelity background chatter: transmits one fixed frame (ID
/// kChatterFrameId, eight 0xAA bytes) at a fixed rate.  Replicates the E10
/// monolithic chatter node exactly (first frame one interval in, then
/// every interval, send counted per attempt).
class TrafficGenNode : public Component {
 public:
  struct Config {
    double frames_per_s = 0.0;  ///< 0 = silent (horizon kNever)
  };

  /// Throws std::runtime_error naming the node for a config validate()
  /// rejects.
  TrafficGenNode(std::string name, Config config, SharedCanBus& bus);

  /// The config rule: frames_per_s finite and >= 0, and when positive a
  /// send interval of at least one simulation tick (1 ns), or the send
  /// loop would never advance.
  static util::DiagnosticList validate(const Config& config);

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
