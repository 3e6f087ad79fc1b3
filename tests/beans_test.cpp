#include <gtest/gtest.h>

#include <cmath>

#include "beans/adc_bean.hpp"
#include "beans/bean_project.hpp"
#include "beans/bit_io_bean.hpp"
#include "beans/cpu_bean.hpp"
#include "beans/free_cntr_bean.hpp"
#include "beans/property.hpp"
#include "beans/pwm_bean.hpp"
#include "beans/quad_dec_bean.hpp"
#include "beans/serial_bean.hpp"
#include "beans/solvers.hpp"
#include "beans/timer_int_bean.hpp"
#include "mcu/mcu.hpp"
#include "sim/world.hpp"

namespace iecd::beans {
namespace {

// ----------------------------------------------------------------- Property

TEST(PropertySet, DeclareAndDefaults) {
  PropertySet props;
  props.declare(PropertySpec::integer("channel", 3, 0, 15, "adc channel"));
  props.declare(PropertySpec::boolean("continuous", false, "free run"));
  EXPECT_TRUE(props.has("channel"));
  EXPECT_EQ(props.get_int("channel"), 3);
  EXPECT_FALSE(props.get_bool("continuous"));
  EXPECT_THROW(props.declare(PropertySpec::boolean("channel", true, "dup")),
               std::logic_error);
}

TEST(PropertySet, RangeValidationRejectsOutOfRange) {
  PropertySet props;
  props.declare(PropertySpec::integer("n", 0, 0, 10, ""));
  util::DiagnosticList diags;
  EXPECT_TRUE(props.set("bean", "n", std::int64_t{10}, diags));
  EXPECT_FALSE(props.set("bean", "n", std::int64_t{11}, diags));
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(props.get_int("n"), 10);  // rejected write did not land
}

TEST(PropertySet, TypeMismatchRejected) {
  PropertySet props;
  props.declare(PropertySpec::integer("n", 0, 0, 10, ""));
  util::DiagnosticList diags;
  EXPECT_FALSE(props.set("bean", "n", std::string("five"), diags));
  EXPECT_FALSE(props.set("bean", "n", true, diags));
  EXPECT_EQ(diags.size(), 2u);
}

TEST(PropertySet, EnumChoicesEnforced) {
  PropertySet props;
  props.declare(PropertySpec::enumeration("dir", "input", {"input", "output"},
                                          ""));
  util::DiagnosticList diags;
  EXPECT_TRUE(props.set("bean", "dir", std::string("output"), diags));
  EXPECT_FALSE(props.set("bean", "dir", std::string("sideways"), diags));
  EXPECT_EQ(props.get_string("dir"), "output");
}

TEST(PropertySet, ReadOnlyPropertiesRejectUserWrites) {
  PropertySet props;
  props.declare(PropertySpec::real("achieved", 0, 0, 10, "").derived());
  util::DiagnosticList diags;
  EXPECT_FALSE(props.set("bean", "achieved", 1.0, diags));
  props.set_derived("achieved", 2.5);
  EXPECT_DOUBLE_EQ(props.get_real("achieved"), 2.5);
}

TEST(PropertySet, IntPromotesToReal) {
  PropertySet props;
  props.declare(PropertySpec::real("f", 1.0, 0.0, 100.0, ""));
  util::DiagnosticList diags;
  EXPECT_TRUE(props.set("bean", "f", std::int64_t{42}, diags));
  EXPECT_DOUBLE_EQ(props.get_real("f"), 42.0);
}

TEST(PropertySet, RenderListsEverything) {
  PropertySet props;
  props.declare(PropertySpec::integer("pin", 7, 0, 63, "port pin"));
  props.declare(PropertySpec::real("ach", 0, 0, 1, "derived x").derived());
  const std::string text = props.render();
  EXPECT_NE(text.find("pin"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
  EXPECT_NE(text.find("[derived]"), std::string::npos);
}

// ------------------------------------------------------------------ Solvers

TEST(Solvers, TimerSolutionHitsExactPeriods) {
  const auto& cpu = mcu::find_derivative("DSC56F8367");  // 60 MHz
  const auto sol = solve_timer_period(cpu, 0.001, 0.001);
  ASSERT_TRUE(sol.has_value());
  EXPECT_DOUBLE_EQ(sol->achieved_period_s, 0.001);
  EXPECT_EQ(sol->relative_error, 0.0);
  // 60000 cycles: prescaler 1 works directly (16-bit modulo).
  EXPECT_EQ(sol->prescaler, 1u);
  EXPECT_EQ(sol->modulo, 60000u);
}

TEST(Solvers, TimerSolutionUsesPrescalerForLongPeriods) {
  const auto& cpu = mcu::find_derivative("DSC56F8367");
  // 100 ms = 6e6 cycles: needs prescaler >= 92 -> 128.
  const auto sol = solve_timer_period(cpu, 0.1, 0.001);
  ASSERT_TRUE(sol.has_value());
  EXPECT_GT(sol->prescaler, 64u);
  EXPECT_NEAR(sol->achieved_period_s, 0.1, 0.1 * 0.001);
}

TEST(Solvers, TimerSolutionFailsBeyondRange) {
  const auto& cpu = mcu::find_derivative("DSC56F8367");
  // Max period = 128 * 65535 / 60e6 ~= 0.14 s; 1 s must fail.
  EXPECT_FALSE(solve_timer_period(cpu, 1.0, 0.01).has_value());
  // Sub-tick periods fail too.
  EXPECT_FALSE(solve_timer_period(cpu, 1e-9, 0.01).has_value());
}

TEST(Solvers, TimerPrefersSmallestError) {
  const auto& cpu = mcu::find_derivative("HCS08GB60");  // 20 MHz
  const auto sol = solve_timer_period(cpu, 0.0123, 0.01);
  ASSERT_TRUE(sol.has_value());
  EXPECT_LE(sol->relative_error, 0.01);
}

TEST(Solvers, PwmMaximizesDutyResolution) {
  const auto& cpu = mcu::find_derivative("DSC56F8367");
  const auto sol = solve_pwm_frequency(cpu, 20000.0, 0.01);
  ASSERT_TRUE(sol.has_value());
  // 60e6/20e3 = 3000 counts at prescaler 1 -> ~11.5 bits.
  EXPECT_EQ(sol->prescaler, 1u);
  EXPECT_EQ(sol->modulo, 3000u);
  EXPECT_EQ(sol->duty_resolution_bits, 11);
  EXPECT_NEAR(sol->achieved_frequency_hz, 20000.0, 20.0);
}

TEST(Solvers, PwmImpossibleFrequenciesRejected) {
  const auto& cpu = mcu::find_derivative("HCS08GB60");  // 20 MHz
  EXPECT_FALSE(solve_pwm_frequency(cpu, 15e6, 0.01).has_value());
}

TEST(Solvers, AdcConversionTimeFromSpec) {
  const auto& dsc = mcu::find_derivative("DSC56F8367");
  // 8.5 cycles at 5 MHz = 1.7 us.
  EXPECT_NEAR(sim::to_microseconds(adc_conversion_time(dsc)), 1.7, 0.01);
}

TEST(Solvers, UartBaudMembership) {
  const auto& dsc = mcu::find_derivative("DSC56F8367");
  EXPECT_TRUE(uart_baud_supported(dsc, 115200));
  EXPECT_FALSE(uart_baud_supported(dsc, 123456));
  const auto& hcs08 = mcu::find_derivative("HCS08GB60");
  EXPECT_FALSE(uart_baud_supported(hcs08, 460800));
}

// ----------------------------------------------------------- Bean & project

TEST(Bean, RequiresCIdentifierNames) {
  EXPECT_THROW(AdcBean("AD 1"), std::invalid_argument);
  EXPECT_NO_THROW(AdcBean("AD1"));
}

TEST(Bean, MethodEnablementGatesDriverEmission) {
  TimerIntBean bean("TI1");
  EXPECT_FALSE(bean.method_enabled("Enable"));
  bean.enable_method("Enable");
  EXPECT_TRUE(bean.method_enabled("Enable"));
  EXPECT_THROW(bean.enable_method("Nonsense"), std::invalid_argument);
  const DriverSource src = bean.driver_source();
  EXPECT_NE(src.header.find("TI1_Enable"), std::string::npos);
  EXPECT_EQ(src.header.find("TI1_Disable"), std::string::npos);
}

// A failed solve clears what an earlier one derived, so nothing binds or
// simulates at the stale timing.
TEST(Bean, FailedSolveClearsEarlierDerivedTiming) {
  const auto& cpu = mcu::find_derivative("DSC56F8367");
  util::DiagnosticList diags;
  TimerIntBean timer("TI1");
  timer.validate(cpu, diags);
  EXPECT_GT(timer.properties().get_int("modulo"), 0);
  timer.set_property("period_s", 1.0, diags);  // beyond the prescalers
  timer.validate(cpu, diags);
  EXPECT_EQ(timer.properties().get_int("prescaler"), 0);
  EXPECT_EQ(timer.properties().get_int("modulo"), 0);
  EXPECT_EQ(timer.properties().get_real("achieved_period_s"), 0.0);
  PwmBean pwm("PWM1");
  pwm.validate(cpu, diags);
  EXPECT_EQ(pwm.properties().get_int("modulo"), 3000);
  pwm.set_property("frequency_hz", 7.3e6, diags);
  pwm.validate(cpu, diags);
  EXPECT_EQ(pwm.properties().get_int("prescaler"), 0);
  EXPECT_EQ(pwm.properties().get_int("modulo"), 0);
  EXPECT_EQ(pwm.properties().get_real("achieved_frequency_hz"), 0.0);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Bean, InspectorRenderShowsTypeMethodsEvents) {
  AdcBean bean("AD1");
  const std::string text = bean.inspector_render();
  EXPECT_NE(text.find("Bean AD1 : ADC"), std::string::npos);
  EXPECT_NE(text.find("Measure"), std::string::npos);
  EXPECT_NE(text.find("OnEnd"), std::string::npos);
  EXPECT_NE(text.find("channel"), std::string::npos);
}

class ProjectFixture : public ::testing::Test {
 protected:
  BeanProject project{"servo"};
};

TEST_F(ProjectFixture, AddFindRemoveRename) {
  project.add<AdcBean>("AD1");
  project.add<PwmBean>("PWM1");
  EXPECT_NE(project.find("AD1"), nullptr);
  EXPECT_NE(project.find("CPU"), nullptr);
  EXPECT_EQ(project.find("missing"), nullptr);
  EXPECT_THROW(project.add<AdcBean>("AD1"), std::invalid_argument);
  EXPECT_TRUE(project.rename("AD1", "AD_speed"));
  EXPECT_EQ(project.find("AD1"), nullptr);
  EXPECT_NE(project.find("AD_speed"), nullptr);
  EXPECT_TRUE(project.remove("AD_speed"));
  EXPECT_FALSE(project.remove("AD_speed"));
}

TEST_F(ProjectFixture, ObserversSeeAllChanges) {
  std::vector<ProjectChange> changes;
  project.add_observer([&](ProjectChange c, const std::string&,
                           const std::string&) { changes.push_back(c); });
  project.add<AdcBean>("AD1");
  project.set_property("AD1", "channel", std::int64_t{2});
  project.rename("AD1", "AD2");
  project.remove("AD2");
  ASSERT_EQ(changes.size(), 4u);
  EXPECT_EQ(changes[0], ProjectChange::kAdded);
  EXPECT_EQ(changes[1], ProjectChange::kPropertyChanged);
  EXPECT_EQ(changes[2], ProjectChange::kRenamed);
  EXPECT_EQ(changes[3], ProjectChange::kRemoved);
}

TEST_F(ProjectFixture, PropertyEditTriggersImmediateValidation) {
  auto& timer = project.add<TimerIntBean>("TI1");
  // 1 ms is achievable: no errors, derived properties filled in.
  auto diags = project.set_property("TI1", "period_s", 0.001);
  EXPECT_FALSE(diags.has_errors());
  EXPECT_DOUBLE_EQ(timer.achieved_period_s(), 0.001);
  // 10 s is not achievable on the 16-bit timer: immediate error.
  diags = project.set_property("TI1", "period_s", 10.0);
  EXPECT_TRUE(diags.has_errors());
}

TEST_F(ProjectFixture, AggregateResourceOverflowDetected) {
  // DSC56F8367 has 2 SCI modules; a third must be flagged.
  project.add<SerialBean>("AS1");
  project.add<SerialBean>("AS2");
  auto diags = project.validate();
  EXPECT_FALSE(diags.has_errors());
  project.add<SerialBean>("AS3");
  diags = project.validate();
  EXPECT_TRUE(diags.has_errors());
  EXPECT_NE(diags.to_string().find("SCI"), std::string::npos);
}

TEST_F(ProjectFixture, ExplicitChannelConflictDetected) {
  project.add<AdcBean>("AD1");
  project.add<AdcBean>("AD2");
  auto diags = project.set_property("AD2", "channel", std::int64_t{0});
  EXPECT_TRUE(diags.has_errors());  // both on channel 0
  diags = project.set_property("AD2", "channel", std::int64_t{1});
  EXPECT_FALSE(diags.has_errors());
}

TEST_F(ProjectFixture, PinConflictDetected) {
  project.add<BitIoBean>("Key1");
  project.add<BitIoBean>("Key2");
  auto diags = project.validate();
  EXPECT_TRUE(diags.has_errors());  // both default to pin 0
  diags = project.set_property("Key2", "pin", std::int64_t{1});
  EXPECT_FALSE(diags.has_errors());
}

TEST_F(ProjectFixture, RetargetingRevalidatesEverything) {
  project.add<QuadDecBean>("QD1");
  auto diags = project.validate();
  EXPECT_FALSE(diags.has_errors());  // DSC has 2 decoders
  // HCS12X has none: the port must be rejected with a clear message.
  diags = project.select_derivative("HCS12X128");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_NE(diags.to_string().find("quadrature"), std::string::npos);
  // Back to the DSC: fine again.
  diags = project.select_derivative("DSC56F8367");
  EXPECT_FALSE(diags.has_errors());
}

TEST_F(ProjectFixture, DerivedPropertiesRetargetWithCpu) {
  auto& timer = project.add<TimerIntBean>("TI1");
  project.set_property("TI1", "period_s", 0.001);
  project.validate();
  const auto dsc_modulo = timer.properties().get_int("modulo");
  project.select_derivative("HCS08GB60");  // 20 MHz
  const auto hcs_modulo = timer.properties().get_int("modulo");
  EXPECT_NE(dsc_modulo, hcs_modulo);  // 60000 vs 20000 cycles
  EXPECT_EQ(hcs_modulo, 20000);
}

TEST_F(ProjectFixture, BindRefusesWithoutValidation) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  project.add<TimerIntBean>("TI1");
  EXPECT_THROW(project.bind(mcu), std::logic_error);
  project.validate();
  EXPECT_NO_THROW(project.bind(mcu));
  EXPECT_TRUE(project.bound());
}

TEST_F(ProjectFixture, BindRefusesMismatchedMcuInstance) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("HCS12X128"));
  project.validate();
  EXPECT_THROW(project.bind(mcu), std::logic_error);
}

TEST_F(ProjectFixture, DriversEmittedForAllBeans) {
  project.add<AdcBean>("AD1").enable_method("Measure");
  project.add<PwmBean>("PWM1").enable_method("SetRatio16");
  project.validate();
  const auto drivers = project.generate_drivers();
  // PE_Types.h + CPU + AD1 + PWM1.
  ASSERT_EQ(drivers.size(), 4u);
  EXPECT_EQ(drivers[0].header_name, "PE_Types.h");
  bool found_measure = false;
  for (const auto& d : drivers) {
    if (d.source.find("AD1_Measure") != std::string::npos) {
      found_measure = true;
    }
  }
  EXPECT_TRUE(found_measure);
}

TEST_F(ProjectFixture, InspectorRenderCoversProject) {
  project.add<AdcBean>("AD1");
  const std::string text = project.inspector_render();
  EXPECT_NE(text.find("Project servo"), std::string::npos);
  EXPECT_NE(text.find("DSC56F8367"), std::string::npos);
  EXPECT_NE(text.find("Bean AD1"), std::string::npos);
}

// -------------------------------------------------- Bound-bean behaviour

class BoundFixture : public ::testing::Test {
 protected:
  sim::World world;
  mcu::Mcu mcu{world, mcu::find_derivative("DSC56F8367")};
  BeanProject project{"p"};
};

TEST_F(BoundFixture, TimerIntBeanFiresItsEvent) {
  auto& timer = project.add<TimerIntBean>("TI1");
  project.set_property("TI1", "period_s", 0.001);
  project.validate();
  project.bind(mcu);

  int hits = 0;
  mcu::IsrHandler h;
  h.name = "model_step";
  h.body = [&]() -> std::uint64_t {
    ++hits;
    return 100;
  };
  timer.set_event_handler("OnInterrupt", std::move(h));
  timer.Enable();
  world.run_for(sim::milliseconds(10));
  EXPECT_EQ(hits, 10);
  timer.Disable();
  world.run_for(sim::milliseconds(10));
  EXPECT_EQ(hits, 10);
}

TEST_F(BoundFixture, HandlerInstalledAfterBindStillRuns) {
  auto& timer = project.add<TimerIntBean>("TI1");
  project.validate();
  project.bind(mcu);
  timer.Enable();
  world.run_for(sim::milliseconds(3));  // unattached: stub dispatches
  int hits = 0;
  mcu::IsrHandler h;
  h.body = [&]() -> std::uint64_t {
    ++hits;
    return 10;
  };
  timer.set_event_handler("OnInterrupt", std::move(h));
  world.run_for(sim::milliseconds(3));
  EXPECT_GE(hits, 2);
}

TEST_F(BoundFixture, AdcBeanMeasureAndGetValue16) {
  auto& adc = project.add<AdcBean>("AD1");
  project.validate();
  project.bind(mcu);
  adc.peripheral()->set_analog_source(0, [](sim::SimTime) { return 3.3; });
  EXPECT_TRUE(adc.Measure());
  world.run_for(sim::milliseconds(1));
  // Full scale, left justified: 0xFFF0 for 12 bits.
  EXPECT_EQ(adc.GetValue16(), 0xFFF0);
  EXPECT_EQ(adc.GetValueRaw(), 0xFFFu);
}

TEST_F(BoundFixture, AdcOnEndEventFires) {
  auto& adc = project.add<AdcBean>("AD1");
  project.validate();
  project.bind(mcu);
  int ends = 0;
  mcu::IsrHandler h;
  h.body = [&]() -> std::uint64_t {
    ++ends;
    return 50;
  };
  adc.set_event_handler("OnEnd", std::move(h));
  adc.Measure();
  world.run_for(sim::milliseconds(1));
  EXPECT_EQ(ends, 1);
}

TEST_F(BoundFixture, PwmBeanControlsDuty) {
  auto& pwm = project.add<PwmBean>("PWM1");
  project.set_property("PWM1", "frequency_hz", 20000.0);
  project.validate();
  project.bind(mcu);
  pwm.Enable();
  pwm.SetRatio16(32768);  // ~50%
  world.run_for(sim::milliseconds(1));
  EXPECT_NEAR(pwm.peripheral()->duty_ratio(), 0.5, 0.01);
  pwm.SetDutyPercent(75.0);
  world.run_for(sim::milliseconds(1));
  EXPECT_NEAR(pwm.peripheral()->duty_ratio(), 0.75, 0.01);
  pwm.Disable();
  EXPECT_FALSE(pwm.peripheral()->running());
}

TEST_F(BoundFixture, QuadDecBeanCountsAndScale) {
  auto& qd = project.add<QuadDecBean>("QD1");
  project.validate();
  project.bind(mcu);
  EXPECT_EQ(qd.counts_per_rev(), 400);
  std::int64_t edges = 0;
  qd.peripheral()->set_read_hook([&] { return edges; });
  edges += 400;
  EXPECT_EQ(qd.GetPosition(), 400);
  qd.ResetPosition();
  EXPECT_EQ(qd.GetPosition(), 0);
}

TEST_F(BoundFixture, BitIoBeanOutputAndInputEdgeEvent) {
  auto& led = project.add<BitIoBean>("LED");
  auto& key = project.add<BitIoBean>("KEY");
  project.set_property("LED", "direction", std::string("output"));
  project.set_property("LED", "pin", std::int64_t{1});
  project.set_property("KEY", "pin", std::int64_t{2});
  project.set_property("KEY", "edge", std::string("falling"));
  auto diags = project.validate();
  ASSERT_FALSE(diags.has_errors()) << diags.to_string();
  project.bind(mcu);

  led.SetVal();
  EXPECT_TRUE(led.GetVal());
  led.NegVal();
  EXPECT_FALSE(led.GetVal());

  int presses = 0;
  mcu::IsrHandler h;
  h.body = [&]() -> std::uint64_t {
    ++presses;
    return 30;
  };
  key.set_event_handler("OnInterrupt", std::move(h));
  key.port()->drive_external(2, true);
  key.port()->drive_external(2, false);  // falling edge
  world.run_for(sim::milliseconds(1));
  EXPECT_EQ(presses, 1);
}

TEST_F(BoundFixture, SerialBeanSendsAndReceives) {
  auto& as1 = project.add<SerialBean>("AS1");
  project.validate();
  project.bind(mcu);

  sim::SerialLink link(world, sim::SerialConfig{});
  as1.peripheral()->connect(link.b_to_a(), link.a_to_b());

  std::vector<std::uint8_t> got;
  mcu::IsrHandler h;
  h.body = [&]() -> std::uint64_t {
    if (auto b = as1.RecvChar()) got.push_back(*b);
    return 80;
  };
  as1.set_event_handler("OnRxChar", std::move(h));

  link.a_to_b().transmit(0x42);
  EXPECT_TRUE(as1.SendChar(0x24));
  std::vector<std::uint8_t> host_rx;
  link.b_to_a().set_receiver(
      [&](std::uint8_t b, sim::SimTime) { host_rx.push_back(b); });
  world.run_for(sim::milliseconds(5));
  EXPECT_EQ(got, (std::vector<std::uint8_t>{0x42}));
  EXPECT_EQ(host_rx, (std::vector<std::uint8_t>{0x24}));
}

TEST_F(BoundFixture, SerialBeanRejectsNonStandardBaud) {
  project.add<SerialBean>("AS1");
  auto diags = project.set_property("AS1", "baud", std::int64_t{100000});
  EXPECT_TRUE(diags.has_errors());
}

TEST_F(BoundFixture, FreeCntrMeasuresElapsedTime) {
  auto& fc = project.add<FreeCntrBean>("FC1");
  project.validate();
  project.bind(mcu);
  fc.Reset();
  world.run_for(sim::microseconds(1500));
  EXPECT_EQ(fc.GetTimeUS(), 1500u);
}

TEST_F(BoundFixture, CpuBeanReportsDerivedClockAndFpuAdvice) {
  auto diags = project.validate();
  EXPECT_DOUBLE_EQ(project.cpu().properties().get_real("clock_hz"), 60e6);
  // Info diagnostic about missing FPU must be present but not an error.
  EXPECT_FALSE(diags.has_errors());
  EXPECT_NE(diags.to_string().find("FPU"), std::string::npos);
}

}  // namespace
}  // namespace iecd::beans
