// Long-horizon and cross-cutting integration tests.
#include <gtest/gtest.h>

#include "beans/watchdog_bean.hpp"
#include "core/case_study.hpp"
#include "core/distributed.hpp"
#include "cosim/farm.hpp"
#include "mcu/derivative.hpp"
#include "model/metrics.hpp"

namespace iecd::core {
namespace {

TEST(SoakRun, TenSimulatedSecondsStaysHealthy) {
  // Long HIL run: no overruns, no watchdog bites, no drift in the loop,
  // bounded memory in the lazily-pruned signal structures.
  ServoConfig cfg;
  cfg.duration_s = 10.0;
  ServoSystem servo(cfg);
  auto& wdog = servo.project().add<beans::WatchdogBean>("WDog1");
  const auto hil = servo.run_hil();
  EXPECT_TRUE(hil.metrics.settled);
  EXPECT_EQ(hil.overruns, 0u);
  EXPECT_EQ(wdog.peripheral()->bites(), 0u);
  EXPECT_NEAR(static_cast<double>(hil.activations), 9999.0, 2.0);
  EXPECT_NEAR(hil.speed.last_value(), cfg.setpoint, 2.0);
  // Steady state for the last 5 s: max deviation stays inside the
  // quantization ripple band.
  double worst = 0.0;
  for (std::size_t i = 0; i < hil.speed.size(); ++i) {
    if (hil.speed.time_at(i) < 5.0) continue;
    worst = std::max(worst, std::abs(hil.speed.value_at(i) - cfg.setpoint));
  }
  EXPECT_LT(worst, 5.0);
}

// One scenario, every harness: the default ServoConfig (1 s) through MIL,
// HIL, the CAN rig (default DistributedConfig) and a one-node farm.  Each
// row's IAE and final speed must stay within a stated tolerance of MIL's,
// and the tolerance names what legitimately differs from MIL there.
TEST(CrossHarness, DefaultServoRowsStayNearMil) {
  const ServoConfig cfg;
  ServoSystem servo(cfg);
  const auto mil = servo.run_mil();
  const auto hil = servo.run_hil();
  const auto rig = run_distributed_servo(DistributedConfig{});

  cosim::FarmConfig farm_cfg;
  farm_cfg.servo_count = 1;
  farm_cfg.duration_s = cfg.duration_s;
  farm_cfg.setpoint = cfg.setpoint;
  farm_cfg.setpoint_time = cfg.setpoint_time;
  cosim::ServoFarm farm(cosim::make_farm_topology(farm_cfg),
                        {farm_cfg.duration_s, farm_cfg.settle_tolerance,
                         nullptr, nullptr});
  cosim::ServoNode& node = *farm.servos().front();
  model::SampleLog farm_speed;
  node.world().queue().schedule_every(sim::from_seconds(cfg.period_s), [&] {
    farm_speed.record(sim::to_seconds(node.world().now()),
                      node.current_speed());
  });
  farm.run();
  const double farm_iae =
      model::integral_absolute_error(farm_speed, cfg.setpoint);

  struct Row {
    const char* harness;
    double iae;
    double final_speed;
    double iae_tol;    ///< relative to MIL's IAE
    double speed_tol;  ///< [rad/s]
    const char* cause;
  };
  const Row rows[] = {
      {"HIL", hil.iae, hil.speed.last_value(), 0.03, 0.05,
       "MCU timing: ISR latency and the PWM latch delay"},
      {"CAN rig", rig.iae, rig.speed.last_value(), 0.03, 0.05,
       "CAN latency: sensor and actuator frames on the bus"},
      {"one-node farm", farm_iae, farm_speed.last_value(), 0.01, 0.05,
       "CAN latency: the set-point arrives in a command frame"},
  };
  for (const Row& row : rows) {
    EXPECT_NEAR(row.iae, mil.iae, row.iae_tol * mil.iae)
        << row.harness << ": " << row.cause;
    EXPECT_NEAR(row.final_speed, mil.speed.last_value(), row.speed_tol)
        << row.harness << ": " << row.cause;
  }
}

TEST(FixedPointEndToEnd, PilWithFixedPointController) {
  ServoConfig cfg;
  cfg.duration_s = 0.5;
  cfg.fixed_point = true;
  ServoSystem servo(cfg);
  const auto pil = servo.run_pil({.baud = 460800});
  EXPECT_TRUE(pil.metrics.settled)
      << "final " << pil.speed.last_value();
  EXPECT_EQ(pil.report.crc_errors, 0u);
  EXPECT_NEAR(pil.speed.last_value(), cfg.setpoint, 3.0);
}

TEST(FixedPointEndToEnd, HilFixedPointFasterAndAccurate) {
  ServoConfig cfg;
  cfg.duration_s = 0.5;
  ServoSystem servo_d(cfg);
  const auto hil_d = servo_d.run_hil();
  cfg.fixed_point = true;
  ServoSystem servo_f(cfg);
  const auto hil_f = servo_f.run_hil();
  EXPECT_TRUE(hil_f.metrics.settled);
  EXPECT_LT(hil_f.exec_us_mean * 10, hil_d.exec_us_mean);
  EXPECT_NEAR(hil_f.speed.last_value(), hil_d.speed.last_value(), 3.0);
}

class CrossDerivativeAgreement : public ::testing::TestWithParam<const char*> {
};

TEST_P(CrossDerivativeAgreement, MilAndHilAgreeOnEveryLegalPort) {
  ServoConfig cfg;
  cfg.derivative = GetParam();
  cfg.duration_s = 0.6;
  ServoSystem servo(cfg);
  ASSERT_FALSE(servo.validate().has_errors());
  const auto mil = servo.run_mil();
  const auto hil = servo.run_hil();
  EXPECT_TRUE(mil.metrics.settled);
  EXPECT_TRUE(hil.metrics.settled);
  EXPECT_NEAR(hil.iae, mil.iae, mil.iae * 0.1);
  EXPECT_NEAR(hil.speed.last_value(), mil.speed.last_value(), 5.0);
}

INSTANTIATE_TEST_SUITE_P(LegalPorts, CrossDerivativeAgreement,
                         ::testing::Values("DSC56F8367", "MCF5235"));

TEST(RepeatedPhases, AlternatingMilHilRunsStayConsistent) {
  // The single model survives repeated mode flips (MIL <-> target) without
  // state bleeding between phases.
  ServoConfig cfg;
  cfg.duration_s = 0.4;
  ServoSystem servo(cfg);
  const auto mil1 = servo.run_mil();
  const auto hil1 = servo.run_hil();
  const auto mil2 = servo.run_mil();
  const auto hil2 = servo.run_hil();
  EXPECT_DOUBLE_EQ(mil1.iae, mil2.iae);
  EXPECT_DOUBLE_EQ(hil1.iae, hil2.iae);
}

}  // namespace
}  // namespace iecd::core
