#include <gtest/gtest.h>

#include "beans/capture_bean.hpp"
#include "core/case_study.hpp"
#include "mcu/derivative.hpp"
#include "periph/capture.hpp"
#include "periph/pwm.hpp"
#include "rt/schedulability.hpp"

namespace iecd::rt {
namespace {

codegen::GeneratedApplication make_app(double period_s, double step_wcet_s,
                                       const mcu::DerivativeSpec& cpu,
                                       double event_wcet_s = 0.0) {
  codegen::GeneratedApplication app;
  app.derivative = cpu.name;
  codegen::TaskSpec step;
  step.name = "step";
  step.trigger = codegen::TaskSpec::Trigger::kPeriodic;
  step.period_s = period_s;
  step.extra_cycles = static_cast<std::uint64_t>(step_wcet_s * cpu.clock_hz);
  app.tasks.push_back(step);
  if (event_wcet_s > 0) {
    codegen::TaskSpec evt;
    evt.name = "evt";
    evt.trigger = codegen::TaskSpec::Trigger::kEvent;
    evt.event_bean = "Key";
    evt.event_name = "OnInterrupt";
    evt.extra_cycles =
        static_cast<std::uint64_t>(event_wcet_s * cpu.clock_hz);
    app.tasks.push_back(evt);
  }
  return app;
}

TEST(Schedulability, LightLoadIsSchedulable) {
  const auto& cpu = mcu::find_derivative("DSC56F8367");
  const auto app = make_app(0.001, 100e-6, cpu);
  const auto report = analyze_schedulability(app, cpu);
  EXPECT_TRUE(report.schedulable);
  EXPECT_NEAR(report.utilisation, 0.1, 0.02);
  ASSERT_EQ(report.tasks.size(), 1u);
  EXPECT_TRUE(report.tasks[0].bounded);
  // Alone on the CPU: response == its own WCET.
  EXPECT_NEAR(report.tasks[0].response_bound_s, report.tasks[0].wcet_s,
              1e-12);
}

TEST(Schedulability, OverloadIsRejected) {
  const auto& cpu = mcu::find_derivative("DSC56F8367");
  const auto app = make_app(0.001, 1.5e-3, cpu);  // WCET > period
  const auto report = analyze_schedulability(app, cpu);
  EXPECT_FALSE(report.schedulable);
  EXPECT_GT(report.utilisation, 1.0);
}

TEST(Schedulability, EventTaskBlocksThePeriodicStep) {
  const auto& cpu = mcu::find_derivative("DSC56F8367");
  // 400 us step + 300 us event task: non-preemptive blocking pushes the
  // step's response to ~700 us, still inside the 1 ms deadline.
  const auto app = make_app(0.001, 400e-6, cpu, 300e-6);
  const auto report =
      analyze_schedulability(app, cpu, {{"evt", 0.01}});
  EXPECT_TRUE(report.schedulable);
  const auto& step = report.tasks[0];
  EXPECT_GT(step.response_bound_s, 650e-6);
  EXPECT_LT(step.response_bound_s, 0.001);
}

TEST(Schedulability, BlockingAloneCanBreakATightDeadline) {
  const auto& cpu = mcu::find_derivative("DSC56F8367");
  // 400 us step at 0.5 ms period + 300 us blocking event: 0.7 ms > 0.5 ms.
  const auto app = make_app(0.0005, 400e-6, cpu, 300e-6);
  const auto report =
      analyze_schedulability(app, cpu, {{"evt", 0.01}});
  EXPECT_FALSE(report.schedulable);
  EXPECT_FALSE(report.tasks[0].deadline_met);
}

TEST(Schedulability, SporadicWithoutRateStillGetsOwnBound) {
  const auto& cpu = mcu::find_derivative("DSC56F8367");
  const auto app = make_app(0.001, 200e-6, cpu, 100e-6);
  const auto report = analyze_schedulability(app, cpu);  // no rate given
  ASSERT_EQ(report.tasks.size(), 2u);
  const auto& evt = report.tasks[1];
  EXPECT_TRUE(evt.bounded);
  // Event task: blocked by the step + interfered by it (higher priority).
  EXPECT_GT(evt.response_bound_s, evt.wcet_s);
  EXPECT_EQ(evt.period_s, 0.0);
}

TEST(Schedulability, AnalysisBoundCoversTimingMonitorWorstCase) {
  // Cross-validation: the analytic worst case must dominate everything the
  // simulator actually measures.  The per-task TimingMonitor measures
  // worst-case response (completion - release) directly at dispatch
  // retirement, and HilResult reports that same figure.
  core::ServoConfig cfg;
  cfg.duration_s = 0.5;
  core::ServoSystem servo(cfg);
  auto build = servo.build_target("servo_hil");
  ASSERT_TRUE(build.ok());
  const auto& cpu = mcu::find_derivative(cfg.derivative);
  const auto report =
      analyze_schedulability(build.app, cpu, {{"KeyUp_OnInterrupt", 0.05}});
  EXPECT_TRUE(report.schedulable);

  obs::MonitorHub hub;
  core::ServoSystem::HilOptions options;
  options.monitors = &hub;
  // Exercise the event-driven task path too, so the sporadic task's bound
  // is checked against a real activation.
  options.key_up_presses = {sim::from_seconds(0.2), sim::from_seconds(0.3)};
  const auto hil = servo.run_hil(options);

  const obs::TimingMonitor* step = hub.find_timing("servo_hil_step");
  ASSERT_NE(step, nullptr);
  EXPECT_GT(step->activations(), 0u);
  EXPECT_EQ(step->deadline_misses(), 0u);
  EXPECT_EQ(hil.response_us_max, step->worst_response_us());
  const double observed_s = step->worst_response_us() * 1e-6;
  ASSERT_FALSE(report.tasks.empty());
  const auto& analytic_step = report.tasks[0];
  EXPECT_GE(analytic_step.response_bound_s + 1e-9, observed_s);
  // Tightness: the analytic worst case stays within an order of magnitude
  // of what the monitor actually saw.
  EXPECT_LT(analytic_step.response_bound_s, 10 * observed_s + 1e-3);

  // The sporadic key task's measured worst response obeys its bound too.
  const obs::TimingMonitor* key = hub.find_timing("KeyUp_OnInterrupt");
  if (key != nullptr && key->activations() > 0) {
    for (const auto& task : report.tasks) {
      if (task.name == "KeyUp_OnInterrupt" && task.bounded) {
        EXPECT_GE(task.response_bound_s + 1e-9,
                  key->worst_response_us() * 1e-6);
      }
    }
  }
}

TEST(Schedulability, ReportRendersAllTasks) {
  const auto& cpu = mcu::find_derivative("DSC56F8367");
  const auto app = make_app(0.001, 100e-6, cpu, 50e-6);
  const auto report = analyze_schedulability(app, cpu, {{"evt", 0.02}});
  const std::string text = report.to_string();
  EXPECT_NE(text.find("step"), std::string::npos);
  EXPECT_NE(text.find("evt"), std::string::npos);
  EXPECT_NE(text.find("SCHEDULABLE"), std::string::npos);
}

// ---------------------------------------------------- input capture

class CaptureFixture : public ::testing::Test {
 protected:
  sim::World world;
  mcu::Mcu mcu{world, mcu::find_derivative("DSC56F8367")};
};

TEST_F(CaptureFixture, MeasuresPulsePeriod) {
  periph::CapturePeripheral icu(mcu, {});
  // 2 kHz square wave driven manually.
  for (int i = 0; i < 10; ++i) {
    world.queue().schedule_at(sim::microseconds(i * 500),
                              [&icu, i] { icu.input_edge(i % 2 == 0); });
  }
  world.run_for(sim::milliseconds(10));
  EXPECT_EQ(icu.captures(), 5u);  // rising edges only
  EXPECT_EQ(icu.last_interval(), sim::milliseconds(1));
  EXPECT_NEAR(icu.measured_frequency_hz(), 1000.0, 1e-9);
}

TEST_F(CaptureFixture, EdgeSelectionBothDoublesCaptures) {
  periph::CaptureConfig cfg;
  cfg.edge = periph::CaptureEdge::kBoth;
  periph::CapturePeripheral icu(mcu, cfg);
  for (int i = 0; i < 10; ++i) {
    world.queue().schedule_at(sim::microseconds(i * 500),
                              [&icu, i] { icu.input_edge(i % 2 == 0); });
  }
  world.run_for(sim::milliseconds(10));
  EXPECT_EQ(icu.captures(), 10u);
  EXPECT_EQ(icu.last_interval(), sim::microseconds(500));
}

TEST_F(CaptureFixture, MeasuresSimulatedPwmFrequency) {
  // Close the loop against the PWM peripheral's edge events: the capture
  // unit must recover the configured switching frequency.
  periph::PwmConfig pwm_cfg;
  pwm_cfg.prescaler = 1;
  pwm_cfg.modulo = 6000;  // 10 kHz at 60 MHz
  pwm_cfg.edge_events = true;
  periph::PwmPeripheral pwm(mcu, pwm_cfg);
  periph::CapturePeripheral icu(mcu, {});
  pwm.set_edge_callback(
      [&icu](bool level, sim::SimTime) { icu.input_edge(level); });
  pwm.set_duty_ratio(0.5);
  pwm.start();
  world.run_for(sim::milliseconds(5));
  EXPECT_NEAR(icu.measured_frequency_hz(), 10000.0, 1.0);
}

TEST_F(CaptureFixture, BeanWiresEventAndMethods) {
  beans::BeanProject project("p");
  auto& cap = project.add<beans::CaptureBean>("Cap1");
  auto diags = project.validate();
  ASSERT_FALSE(diags.has_errors());
  project.bind(mcu);
  int captures = 0;
  mcu::IsrHandler h;
  h.body = [&]() -> std::uint64_t {
    ++captures;
    return 40;
  };
  cap.set_event_handler("OnCapture", std::move(h));
  for (int i = 0; i < 6; ++i) {
    world.queue().schedule_at(sim::milliseconds(i * 2), [&cap, i] {
      cap.peripheral()->input_edge(i % 2 == 0);
    });
  }
  world.run_for(sim::milliseconds(20));
  EXPECT_EQ(captures, 3);
  EXPECT_EQ(cap.GetPeriodUS(), 4000u);
  EXPECT_NEAR(cap.GetFreqHz(), 250.0, 1e-9);
}

// ----------------------------------------------------- background task

TEST(BackgroundTask, RunsWhileIdleWithoutDisturbingTheLoop) {
  core::ServoConfig cfg;
  cfg.duration_s = 0.3;
  core::ServoSystem servo(cfg);

  auto build = servo.build_target("servo");
  ASSERT_TRUE(build.ok());
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative(cfg.derivative));
  servo.project().bind(mcu);
  rt::Runtime runtime(mcu, servo.project(), build.app);
  runtime.start();
  std::uint64_t chunks = 0;
  runtime.set_background_task([&]() -> std::uint64_t {
    ++chunks;
    return 3000;  // 50 us chunks of "manually written" work
  });
  world.run_for(sim::from_seconds(cfg.duration_s));
  // Background soaked up most of the idle time...
  EXPECT_GT(chunks, 3000u);
  // ...while the periodic step kept its schedule.
  EXPECT_EQ(runtime.periodic_activations(), 299u);
  EXPECT_EQ(mcu.intc().overruns(), 0u);
  // CPU accounted nearly fully busy.
  const double util = static_cast<double>(mcu.cpu().busy_time()) /
                      static_cast<double>(sim::from_seconds(cfg.duration_s));
  EXPECT_GT(util, 0.95);
}

}  // namespace
}  // namespace iecd::rt
