// Coverage suite: smaller paths and reporting surfaces the main suites
// exercise only incidentally.
#include <gtest/gtest.h>

#include <sstream>

#include "beans/bean_project.hpp"
#include "beans/can_bean.hpp"
#include "beans/capture_bean.hpp"
#include "beans/free_cntr_bean.hpp"
#include "beans/serial_bean.hpp"
#include "beans/watchdog_bean.hpp"
#include "blocks/sinks.hpp"
#include "blocks/sources.hpp"
#include "core/case_study.hpp"
#include "mcu/derivative.hpp"
#include "model/engine.hpp"
#include "periph/uart.hpp"
#include "plant/dc_motor.hpp"
#include "util/strings.hpp"

namespace iecd {
namespace {

TEST(ValueToString, NamesTypeAndValue) {
  const auto v = model::Value::of_int(model::DataType::kInt16, -42);
  EXPECT_NE(v.to_string().find("int16"), std::string::npos);
  EXPECT_NE(v.to_string().find("-42"), std::string::npos);
  const auto f = model::Value::quantize(0.5, model::DataType::kFixed,
                                        fixpt::FixedFormat::s16(10));
  EXPECT_NE(f.to_string().find("fixdt"), std::string::npos);
}

TEST(FixedValueToString, ShowsFormatAndRaw) {
  const auto v =
      fixpt::FixedValue::from_double(1.5, fixpt::FixedFormat::s16(8));
  const std::string s = v.to_string();
  EXPECT_NE(s.find("sfix16_En8"), std::string::npos);
  EXPECT_NE(s.find("raw=384"), std::string::npos);
}

TEST(UartFifo, RejectsWhenFull) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  periph::UartConfig cfg;
  cfg.tx_fifo_depth = 4;
  periph::UartPeripheral uart(mcu, cfg);
  sim::SerialLink link(world, sim::SerialConfig{});
  uart.connect(link.b_to_a(), link.a_to_b());
  std::uint8_t burst[16] = {};
  const std::size_t accepted = uart.send(burst, sizeof burst);
  EXPECT_EQ(accepted, 4u);  // FIFO depth enforced
  world.run_for(sim::milliseconds(10));
  // After draining, more bytes go through.
  EXPECT_TRUE(uart.send(0x55));
}

TEST(GpioConflicts, ExternalDriveOnOutputIgnored) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  periph::GpioPort port(mcu, periph::GpioConfig{});
  port.set_direction(0, periph::PinDirection::kOutput);
  port.write(0, true);
  port.drive_external(0, false);  // the external world loses
  EXPECT_TRUE(port.read(0));
}

TEST(InspectorRender, CoversEveryBeanType) {
  beans::BeanProject project("all");
  project.add<beans::SerialBean>("AS1");
  project.add<beans::WatchdogBean>("WDog1");
  project.add<beans::CanBean>("CAN1");
  project.add<beans::CaptureBean>("Cap1");
  project.add<beans::FreeCntrBean>("FC1");
  const std::string text = project.inspector_render();
  for (const char* needle :
       {"AsynchroSerial", "WatchDog", "FreescaleCAN", "Capture",
        "FreeCntr"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(DriverEmission, AllBeanTypesEmitHeaders) {
  beans::BeanProject project("all");
  project.add<beans::SerialBean>("AS1").enable_method("SendChar");
  project.add<beans::WatchdogBean>("WDog1").enable_method("Clear");
  project.add<beans::CanBean>("CAN1").enable_method("SendFrame");
  project.add<beans::CaptureBean>("Cap1").enable_method("GetPeriodUS");
  project.add<beans::FreeCntrBean>("FC1").enable_method("GetTimeUS");
  project.validate();
  for (const auto api :
       {beans::DriverApi::kProcessorExpert, beans::DriverApi::kAutosar}) {
    const auto drivers = project.generate_drivers(api);
    EXPECT_EQ(drivers.size(), 7u);  // types + CPU + 5 beans
    for (const auto& d : drivers) {
      EXPECT_FALSE(d.header.empty()) << d.header_name;
    }
  }
}

TEST(Reports, GeneratedAppAndPilReportRender) {
  core::ServoConfig cfg;
  cfg.duration_s = 0.2;
  core::ServoSystem servo(cfg);
  auto build = servo.build_target("servo");
  const std::string app_report = build.app.report();
  EXPECT_NE(app_report.find("servo_step"), std::string::npos);
  EXPECT_NE(app_report.find("memory:"), std::string::npos);
  const auto pil = servo.run_pil({.baud = 460800});
  const std::string pil_report = pil.report.to_string();
  EXPECT_NE(pil_report.find("round trip"), std::string::npos);
  EXPECT_NE(pil_report.find("comm per step"), std::string::npos);
}

TEST(EngineAdvance, StopsAtStopTime) {
  model::Model m("t");
  m.add<blocks::ConstantBlock>("c", 1.0);
  model::Engine eng(m, {.stop_time = 0.01});
  eng.initialize();
  eng.advance_to(1.0);  // beyond stop time
  EXPECT_NEAR(eng.time(), 0.01, 1e-12);
}

TEST(EngineScopes, InheritedContinuousScopeRecordsOncePerMajor) {
  // A scope fed by a continuous source resolves continuous; the minor-step
  // guard must prevent duplicate samples.
  model::Model m("t");
  auto& src = m.add<blocks::SineBlock>("s", 1.0, 5.0);
  src.set_sample_time(model::SampleTime::continuous());
  auto& scope = m.add<blocks::ScopeBlock>("scope");
  m.connect(src, 0, scope, 0);
  model::Engine eng(m, {.stop_time = 0.05, .base_period = 1e-3,
                        .minor_steps = 8});
  eng.run();
  EXPECT_EQ(scope.log().size(), 50u);
}

TEST(ServoValidation, ReportsModelAndProjectIssues) {
  core::ServoConfig cfg;
  core::ServoSystem servo(cfg);
  // Sanity: the shipped case study validates clean and its model sorts.
  EXPECT_FALSE(servo.validate().has_errors());
  EXPECT_NO_THROW(servo.top().sorted());
  EXPECT_FALSE(servo.top().check().has_errors());
  EXPECT_FALSE(servo.controller().inner().check().has_errors());
}

TEST(StringsFormatting, LongFormatDoesNotTruncate) {
  const std::string long_name(300, 'x');
  const std::string out = util::format("%s:%d", long_name.c_str(), 7);
  EXPECT_EQ(out.size(), 302u);
  EXPECT_EQ(out.substr(300), ":7");
}

TEST(PwmBeanTolerance, TightToleranceRejectsOddFrequency) {
  beans::BeanProject project("p");
  project.add<beans::PwmBean>("PWM1");
  util::DiagnosticList d0;
  // 17777 Hz at 60 MHz: modulo 3375.2 -> ~0.006% error, fine at 1%.
  auto diags = project.set_property("PWM1", "frequency_hz", 17777.0);
  EXPECT_FALSE(diags.has_errors());
  // With a 0.0001% tolerance the same request fails.
  project.set_property("PWM1", "tolerance_percent", 0.0001);
  diags = project.validate();
  EXPECT_TRUE(diags.has_errors());
}

TEST(AdcBeanContinuous, FreeRunningConversionsViaBean) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  beans::BeanProject project("p");
  auto& adc = project.add<beans::AdcBean>("AD1");
  util::DiagnosticList d;
  adc.set_property("continuous", true, d);
  project.validate();
  project.bind(mcu);
  adc.peripheral()->set_analog_source(0, [](sim::SimTime) { return 2.0; });
  adc.Measure();
  world.run_for(sim::milliseconds(1));
  EXPECT_GT(adc.peripheral()->conversions_completed(), 100u);
}

}  // namespace
}  // namespace iecd
