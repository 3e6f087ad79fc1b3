/// \file distributed.hpp
/// Distributed servo reference application: the paper's motivation is "an
/// integrated development environment for embedded controllers having
/// distributed nature", and its survey of timing effects (Section 1)
/// explicitly concerns *networked* embedded systems where sampling
/// periods and latencies vary.  This rig splits the Section 7 servo across
/// three MCUs on one CAN bus:
///
///   sensor node    : quadrature decoder + 1 kHz timer; broadcasts the
///                    position register (id kSensorFrameId)
///   controller node: receives positions, estimates speed, runs the PI
///                    law, broadcasts the duty command (id kActuatorFrameId)
///   actuator node  : receives duty commands, drives the PWM + motor
///
/// Every hop inherits CAN arbitration and wire time, so bus bit rate and
/// background traffic degrade the loop exactly the way the cited
/// networked-control literature describes.
///
/// Since the co-simulation master landed (src/cosim/) the rig executes as
/// a 2-component topology — plant rig (sensor + actuator MCUs, motor,
/// encoder) and controller — coupled only by CAN frames over a
/// SharedCanBus, plus a model-fidelity chatter node.  The step-negotiation
/// loop reproduces the former monolithic single-world execution exactly;
/// the regression test in tests/distributed_test.cpp locks the metrics to
/// the monolithic goldens bit-for-bit.
#pragma once

#include <memory>

#include "beans/bean_project.hpp"
#include "beans/can_bean.hpp"
#include "beans/pwm_bean.hpp"
#include "beans/quad_dec_bean.hpp"
#include "beans/timer_int_bean.hpp"
#include "model/logging.hpp"
#include "model/metrics.hpp"
#include "plant/dc_motor.hpp"
#include "plant/encoder.hpp"
#include "sim/can_bus.hpp"
#include "sim/world.hpp"

namespace iecd::core {

struct DistributedConfig {
  double period_s = 0.001;
  double setpoint = 100.0;        ///< [rad/s]
  double setpoint_time = 0.05;
  double duration_s = 1.0;
  double kp = 0.004;
  double ki = 0.12;
  std::uint32_t can_bitrate = 500000;
  /// Background traffic: a chatter node injecting higher-priority frames
  /// at this rate (0 = none; any other rate must pass
  /// cosim::TrafficGenNode::validate or the run throws).  Models a loaded
  /// vehicle bus.
  double background_frames_per_s = 0.0;
  int encoder_lines = 100;
  plant::DcMotorParams motor;

  static constexpr std::uint32_t kSensorFrameId = 0x100;
  static constexpr std::uint32_t kActuatorFrameId = 0x200;
};

struct DistributedResult {
  model::SampleLog speed;
  model::StepMetrics metrics;
  double iae = 0.0;
  std::uint64_t sensor_frames = 0;
  std::uint64_t actuator_frames = 0;
  std::uint64_t background_frames = 0;
  std::uint64_t controller_rx_overruns = 0;
  double bus_utilisation = 0.0;
  /// Sensor-sample -> actuation latency across the two hops [us].
  double loop_latency_us_mean = 0.0;
  double loop_latency_us_max = 0.0;
  double loop_latency_us_p99 = 0.0;
  /// Closed loops measured, and how many blew their implicit deadline
  /// (one sampling period): the "miss" figure for networked control.
  std::uint64_t loop_samples = 0;
  std::uint64_t loop_deadline_misses = 0;
  /// Scheduler pressure: event-queue dispatches for the whole run, and the
  /// frames the bus delivered — the benches report events per frame.
  std::uint64_t events_executed = 0;
  std::uint64_t frames_delivered = 0;
};

/// Builds the three-node system, runs it, and reports control quality plus
/// network statistics.  Deterministic.  Throws std::runtime_error naming
/// the node for a configuration it rejects (a non-finite or negative
/// duration_s, a can_bitrate SharedCanBus::validate rejects, a controller
/// config batch::validate rejects, or a non-finite setpoint or
/// setpoint_time).
DistributedResult run_distributed_servo(const DistributedConfig& config);

}  // namespace iecd::core
