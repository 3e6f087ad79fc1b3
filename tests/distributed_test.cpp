#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/distributed.hpp"

namespace iecd::core {
namespace {

/// Bit-pattern equality: a golden recorded with 17 significant digits
/// names exactly one double, and the rig must reproduce that one.
void expect_bits(double actual, double golden, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(golden))
      << what << ": " << std::hexfloat << actual << " vs golden " << golden;
}

DistributedConfig quick() {
  DistributedConfig cfg;
  cfg.duration_s = 0.6;
  return cfg;
}

TEST(DistributedServo, TracksSetpointOverHealthyBus) {
  const auto r = run_distributed_servo(quick());
  EXPECT_TRUE(r.metrics.settled) << "final " << r.speed.last_value();
  EXPECT_NEAR(r.speed.last_value(), 100.0, 3.0);
  // One sensor and one actuator frame per control period.
  EXPECT_NEAR(static_cast<double>(r.sensor_frames), 599.0, 2.0);
  EXPECT_NEAR(static_cast<double>(r.actuator_frames),
              static_cast<double>(r.sensor_frames), 2.0);
  EXPECT_EQ(r.controller_rx_overruns, 0u);
}

TEST(DistributedServo, LatencyIsTwoFrameHops) {
  const auto r = run_distributed_servo(quick());
  // Two 3-byte frames at 500 kbit/s: ~2 * 170 us of wire time plus ISR
  // executions.
  EXPECT_GT(r.loop_latency_us_mean, 250.0);
  EXPECT_LT(r.loop_latency_us_mean, 500.0);
  EXPECT_GE(r.loop_latency_us_max + 1e-9, r.loop_latency_us_mean);
}

TEST(DistributedServo, FasterBusShortensLatency) {
  auto cfg = quick();
  cfg.can_bitrate = 1000000;
  const auto fast = run_distributed_servo(cfg);
  cfg.can_bitrate = 250000;
  const auto slow = run_distributed_servo(cfg);
  EXPECT_LT(fast.loop_latency_us_mean, slow.loop_latency_us_mean / 2.5);
  EXPECT_LT(fast.bus_utilisation, slow.bus_utilisation);
}

TEST(DistributedServo, SaturatedBusLosesTheLoop) {
  auto cfg = quick();
  cfg.can_bitrate = 100000;  // frames no longer fit the period
  const auto r = run_distributed_servo(cfg);
  EXPECT_FALSE(r.metrics.settled);
  EXPECT_GT(r.iae, 10.0);
  EXPECT_GT(r.bus_utilisation, 0.98);
}

TEST(DistributedServo, BackgroundTrafficRaisesLatency) {
  const auto clean = run_distributed_servo(quick());
  auto cfg = quick();
  cfg.background_frames_per_s = 1500.0;
  const auto loaded = run_distributed_servo(cfg);
  EXPECT_GT(loaded.loop_latency_us_mean,
            clean.loop_latency_us_mean + 100.0);
  EXPECT_GT(loaded.bus_utilisation, clean.bus_utilisation + 0.2);
  EXPECT_GT(loaded.background_frames, 800u);
  // The loop still holds at this load level.
  EXPECT_TRUE(loaded.metrics.settled);
}

TEST(DistributedServo, DeterministicAcrossRuns) {
  const auto a = run_distributed_servo(quick());
  const auto b = run_distributed_servo(quick());
  EXPECT_EQ(a.iae, b.iae);
  EXPECT_EQ(a.loop_latency_us_mean, b.loop_latency_us_mean);
  EXPECT_EQ(a.sensor_frames, b.sensor_frames);
}

// ---------------------------------------------------------------------------
// Cosim-rebase regression lock: run_distributed_servo now executes on the
// co-simulation master (src/cosim/) as a 2-component topology.  The golden
// values below were captured from the former monolithic single-world
// implementation at full precision; the step-negotiation loop is exact, so
// every physics/latency metric must match BIT-FOR-BIT.  The iae and final
// speed goldens were re-pinned when the plant's RK4 step became one step
// per 50 us poll (sized by the motor's fastest mode) instead of a 20/20/10
// us split of each poll interval, again when the plant's step became the
// motor's exact zero-order-hold map, and again when the controller node
// began stepping the model's 8-tap controller (batch::SpeedPi) instead of
// a 4-tap copy, and again when the plant stepped only at input changes
// and reads, and a decoder read began to see the count at its own instant
// instead of at the last 50 us poll before it.  The loop_latency_us_p99
// goldens were re-pinned once more when the rig's latencies moved from a
// sorted sample copy into a util::LatencyHistogram, whose percentiles are
// bucket-interpolated (each within kRelativeErrorBound, 1/32, of the
// exact value; the healthy bus's equal samples stay exact).  events_executed is
// deliberately excluded — cross-world frame deliveries are separate queue
// events, so the scheduler-pressure counter legitimately differs.
// ---------------------------------------------------------------------------

TEST(CosimDistributedRegression, HealthyBusMatchesMonolithicGoldens) {
  const auto r = run_distributed_servo(quick());
  expect_bits(r.iae, 6.2261227394870335, "iae");
  expect_bits(r.loop_latency_us_mean, 359.70000000000334,
              "loop_latency_us_mean");
  expect_bits(r.loop_latency_us_max, 359.69999999999999, "loop_latency_us_max");
  expect_bits(r.loop_latency_us_p99, 359.69999999999999, "loop_latency_us_p99");
  expect_bits(r.bus_utilisation, 0.34182933333333332, "bus_utilisation");
  expect_bits(r.speed.last_value(), 100.01171046942581, "final speed");
  EXPECT_EQ(r.loop_samples, 599u);
  EXPECT_EQ(r.loop_deadline_misses, 0u);
  EXPECT_EQ(r.sensor_frames, 599u);
  EXPECT_EQ(r.actuator_frames, 599u);
  EXPECT_EQ(r.background_frames, 0u);
  EXPECT_EQ(r.controller_rx_overruns, 0u);
  EXPECT_EQ(r.frames_delivered, 1198u);
  EXPECT_TRUE(r.metrics.settled);
  EXPECT_GT(r.events_executed, 0u);
}

TEST(CosimDistributedRegression, SaturatedBusMatchesMonolithicGoldens) {
  auto cfg = quick();
  cfg.can_bitrate = 100000;
  const auto r = run_distributed_servo(cfg);
  expect_bits(r.iae, 96.56858806503486, "iae");
  expect_bits(r.loop_latency_us_mean, 124385.30000000008,
              "loop_latency_us_mean");
  expect_bits(r.loop_latency_us_max, 253753.30000000002, "loop_latency_us_max");
  expect_bits(r.loop_latency_us_p99, 247808.0, "loop_latency_us_p99");
  expect_bits(r.bus_utilisation, 0.9986666666666667, "bus_utilisation");
  expect_bits(r.speed.last_value(), 469.603628916812, "final speed");
  EXPECT_EQ(r.loop_samples, 101u);
  EXPECT_EQ(r.loop_deadline_misses, 101u);
  EXPECT_EQ(r.sensor_frames, 599u);
  EXPECT_EQ(r.actuator_frames, 598u);
  EXPECT_EQ(r.frames_delivered, 699u);
  EXPECT_FALSE(r.metrics.settled);
}

TEST(CosimDistributedRegression, LoadedBusMatchesMonolithicGoldens) {
  auto cfg = quick();
  cfg.background_frames_per_s = 1500.0;
  const auto r = run_distributed_servo(cfg);
  expect_bits(r.iae, 6.235948611900207, "iae");
  expect_bits(r.loop_latency_us_mean, 491.95383973289086,
              "loop_latency_us_mean");
  expect_bits(r.loop_latency_us_max, 624.79899999999998, "loop_latency_us_max");
  expect_bits(r.loop_latency_us_p99, 624.79899999999998, "loop_latency_us_p99");
  expect_bits(r.bus_utilisation, 0.74218399999999995, "bus_utilisation");
  expect_bits(r.speed.last_value(), 99.97792041573322, "final speed");
  EXPECT_EQ(r.loop_samples, 599u);
  EXPECT_EQ(r.background_frames, 899u);
  EXPECT_EQ(r.frames_delivered, 2097u);
  EXPECT_TRUE(r.metrics.settled);
}

// A bean that rejects its configuration stops the rig before it runs:
// with encoder_lines = 0 the decoder bean would keep its default 100
// lines while the speed gain divides by zero, and the motor never turns.
TEST(NodeConfigRejection, DistributedRigRejectsZeroEncoderLines) {
  auto cfg = quick();
  cfg.encoder_lines = 0;
  try {
    run_distributed_servo(cfg);
    FAIL() << "encoder_lines = 0 ran to the end";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("encoder_lines"), std::string::npos)
        << e.what();
  }
}

// A NaN set-point would pass the PI clamp as a NaN duty into the
// actuator frame's lround(); the controller node refuses it at build.
TEST(NodeConfigRejection, DistributedRigRejectsNonFiniteSetpoint) {
  auto cfg = quick();
  cfg.setpoint = std::numeric_limits<double>::quiet_NaN();
  try {
    run_distributed_servo(cfg);
    FAIL() << "setpoint = NaN ran to the end";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("setpoint"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace iecd::core
