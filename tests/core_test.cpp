#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "blocks/math_blocks.hpp"
#include "core/case_study.hpp"
#include "core/model_sync.hpp"
#include "core/pe_blocks.hpp"
#include "core/peert.hpp"
#include "mcu/derivative.hpp"
#include "model/engine.hpp"
#include "rt/runtime.hpp"

#include "golden/run_mil_default.inc"

namespace iecd::core {
namespace {

// ----------------------------------------------------------- PE block MIL

class PeBlockFixture : public ::testing::Test {
 protected:
  beans::BeanProject project{"p"};
};

TEST_F(PeBlockFixture, AdcBlockQuantizesTo12BitsInMil) {
  auto& bean = project.add<beans::AdcBean>("AD1");
  AdcPeBlock block("AD1", bean);
  model::Model m("host");
  auto& src = m.add<blocks::ConstantBlock>("v", 1.65);
  auto& adc = m.add<AdcPeBlock>("adc", bean);
  m.connect(src, 0, adc, 0);
  src.output(model::SimContext{});
  adc.output(model::SimContext{});
  // 1.65 / 3.3 full scale at 12 bits = code 2048, left justified: 0x8000.
  EXPECT_NEAR(adc.out(0).as_double(), 2048.0 * 16.0, 16.0);
  // Resolution visible: small voltage change below 1 LSB does not move it.
  const double code1 = adc.out(0).as_double();
  src.set_value(1.65 + 0.0001);
  src.output(model::SimContext{});
  adc.output(model::SimContext{});
  EXPECT_EQ(adc.out(0).as_double(), code1);
}

TEST_F(PeBlockFixture, PwmBlockLimitsDutyResolutionInMil) {
  auto& bean = project.add<beans::PwmBean>("PWM1");
  util::DiagnosticList diags;
  bean.set_property("frequency_hz", 500000.0, diags);  // few counts/period
  project.validate();
  const auto modulo = bean.properties().get_int("modulo");
  ASSERT_GT(modulo, 0);
  ASSERT_LT(modulo, 200);
  model::Model m("host");
  auto& src = m.add<blocks::ConstantBlock>("d", 0.5012345);
  auto& pwm = m.add<PwmPeBlock>("pwm", bean);
  m.connect(src, 0, pwm, 0);
  src.output(model::SimContext{});
  pwm.output(model::SimContext{});
  const double q = pwm.out(0).as_double();
  // Quantized to 1/modulo steps.
  EXPECT_NEAR(q * static_cast<double>(modulo),
              std::round(q * static_cast<double>(modulo)), 1e-9);
  EXPECT_NE(q, 0.5012345);
}

TEST_F(PeBlockFixture, QuadDecBlockWrapsLikeHardware) {
  auto& bean = project.add<beans::QuadDecBean>("QD1");
  model::Model m("host");
  auto& src = m.add<blocks::ConstantBlock>("angle", 0.0);
  auto& qd = m.add<QuadDecPeBlock>("qd", bean);
  m.connect(src, 0, qd, 0);
  // 100 revolutions = 40000 counts -> wraps into int16.
  src.set_value(100.0 * 2.0 * 3.14159265358979);
  src.output(model::SimContext{});
  qd.output(model::SimContext{});
  const double counts = qd.out(0).as_double();
  EXPECT_GE(counts, -32768.0);
  EXPECT_LE(counts, 32767.0);
  EXPECT_NEAR(counts, 40000.0 - 65536.0, 2.0);  // wrapped value
}

TEST_F(PeBlockFixture, BitIoBlockFiresEdgeEventInMil) {
  auto& bean = project.add<beans::BitIoBean>("Key");
  util::DiagnosticList d;
  bean.set_property("edge", std::string("rising"), d);
  model::Model m("host");
  auto& src = m.add<blocks::ConstantBlock>("level", 0.0);
  auto& key = m.add<BitIoPeBlock>("key", bean);
  m.connect(src, 0, key, 0);
  int fires = 0;
  key.event("OnInterrupt").attach(
      [&](const model::SimContext&) { ++fires; });
  model::SimContext ctx;
  src.output(ctx);
  key.output(ctx);
  EXPECT_EQ(fires, 0);
  src.set_value(1.0);
  src.output(ctx);
  key.output(ctx);
  EXPECT_EQ(fires, 1);  // rising edge
  src.set_value(0.0);
  src.output(ctx);
  key.output(ctx);
  EXPECT_EQ(fires, 1);  // falling edge ignored
}

// -------------------------------------------------------------- ModelSync

TEST(ModelSync, BlockInsertionCreatesBean) {
  model::Model m("ctrl");
  beans::BeanProject project("p");
  ModelSync sync(m, project);
  sync.add_adc("AD1");
  sync.add_pwm("PWM1");
  EXPECT_NE(project.find("AD1"), nullptr);
  EXPECT_NE(project.find("PWM1"), nullptr);
  EXPECT_NE(m.find("AD1"), nullptr);
  EXPECT_EQ(project.find("AD1")->type_name(), "ADC");
}

TEST(ModelSync, RemovalAndRenamePropagateModelToProject) {
  model::Model m("ctrl");
  beans::BeanProject project("p");
  ModelSync sync(m, project);
  sync.add_adc("AD1");
  EXPECT_TRUE(sync.rename_pe_block("AD1", "AD_speed"));
  EXPECT_EQ(project.find("AD1"), nullptr);
  EXPECT_NE(project.find("AD_speed"), nullptr);
  EXPECT_NE(m.find("AD_speed"), nullptr);
  EXPECT_TRUE(sync.remove_pe_block("AD_speed"));
  EXPECT_EQ(project.find("AD_speed"), nullptr);
  EXPECT_EQ(m.find("AD_speed"), nullptr);
}

TEST(ModelSync, ProjectSideChangesPropagateToModel) {
  model::Model m("ctrl");
  beans::BeanProject project("p");
  ModelSync sync(m, project);
  sync.add_pwm("PWM1");
  // Rename from the PE project window.
  project.rename("PWM1", "PWM_drive");
  EXPECT_NE(m.find("PWM_drive"), nullptr);
  EXPECT_EQ(m.find("PWM1"), nullptr);
  // Remove from the PE project window.
  project.remove("PWM_drive");
  EXPECT_EQ(m.find("PWM_drive"), nullptr);
}

TEST(ModelSync, PropertyEditValidatesImmediately) {
  model::Model m("ctrl");
  beans::BeanProject project("p");
  ModelSync sync(m, project);
  sync.add_timer_int("TI1");
  auto diags = sync.set_block_property("TI1", "period_s", 10.0);
  EXPECT_TRUE(diags.has_errors());  // not achievable on the 16-bit timer
  diags = sync.set_block_property("TI1", "period_s", 0.001);
  EXPECT_FALSE(diags.has_errors());
}

// ----------------------------------------------------- Servo case study

class ServoFixture : public ::testing::Test {
 protected:
  static ServoConfig quick_config() {
    ServoConfig cfg;
    cfg.duration_s = 0.6;
    cfg.setpoint_time = 0.05;
    return cfg;
  }
};

TEST_F(ServoFixture, ProjectValidatesCleanOnDsc) {
  ServoSystem servo(quick_config());
  auto diags = servo.validate();
  EXPECT_FALSE(diags.has_errors()) << diags.to_string();
}

TEST_F(ServoFixture, MilReachesSetpoint) {
  ServoSystem servo(quick_config());
  const auto result = servo.run_mil();
  EXPECT_TRUE(result.metrics.settled)
      << "final speed " << result.speed.last_value();
  EXPECT_LT(result.metrics.steady_state_error, 3.0);
  EXPECT_GT(result.metrics.rise_time, 0.0);
  EXPECT_LT(result.metrics.rise_time, 0.2);
}

TEST_F(ServoFixture, MilFixedPointTracksDoubleWithinQuantization) {
  auto cfg = quick_config();
  ServoSystem servo_double(cfg);
  cfg.fixed_point = true;
  ServoSystem servo_fixed(cfg);
  const auto rd = servo_double.run_mil();
  const auto rf = servo_fixed.run_mil();
  EXPECT_TRUE(rf.metrics.settled);
  // Fixed-point controller lands close to the double one.
  EXPECT_NEAR(rf.speed.last_value(), rd.speed.last_value(), 2.0);
  EXPECT_NEAR(rf.iae, rd.iae, rd.iae * 0.25 + 0.1);
}

TEST_F(ServoFixture, TargetBuildEmitsServoSources) {
  ServoSystem servo(quick_config());
  auto build = servo.build_target("servo");
  EXPECT_TRUE(build.ok()) << build.diagnostics.to_string();
  EXPECT_GE(build.app.tasks.size(), 2u);  // step + key event task
  bool has_event_task = false;
  for (const auto& t : build.app.tasks) {
    if (t.trigger == codegen::TaskSpec::Trigger::kEvent) {
      has_event_task = true;
      EXPECT_EQ(t.event_bean, "KeyUp");
    }
  }
  EXPECT_TRUE(has_event_task);
  EXPECT_NE(build.app.sources.at("servo.c").find("QD1_GetPosition"),
            std::string::npos);
}

TEST_F(ServoFixture, HilMatchesMilShape) {
  ServoSystem servo(quick_config());
  const auto mil = servo.run_mil();
  const auto hil = servo.run_hil();
  EXPECT_TRUE(hil.metrics.settled)
      << "final speed " << hil.speed.last_value();
  EXPECT_NEAR(hil.speed.last_value(), mil.speed.last_value(), 5.0);
  EXPECT_GT(hil.activations, 500u);
  EXPECT_GT(hil.exec_us_mean, 0.0);
  EXPECT_LT(hil.cpu_utilisation, 0.5);
  EXPECT_EQ(hil.overruns, 0u);
}

TEST_F(ServoFixture, HilKeyPressRaisesSetpoint) {
  auto cfg = quick_config();
  cfg.duration_s = 1.0;
  ServoSystem servo(cfg);
  ServoSystem::HilOptions opts;
  opts.key_up_presses = {sim::milliseconds(500), sim::milliseconds(600)};
  const auto hil = servo.run_hil(opts);
  // Two presses of +10 rad/s land above the base set-point.  The push
  // button bounces (as real contacts do), so each press can fire the edge
  // interrupt several times — the undebounced event task sees >= 1
  // activation per press.
  EXPECT_GT(hil.speed.last_value(), cfg.setpoint + 12.0);
  EXPECT_GE(servo.setpoint_bump().activations(), 2u);
  EXPECT_LE(servo.setpoint_bump().activations(), 12u);
}

TEST_F(ServoFixture, PilTracksMilThroughSerialLoop) {
  auto cfg = quick_config();
  ServoSystem servo(cfg);
  const auto mil = servo.run_mil();
  const auto pil = servo.run_pil({.baud = 460800});
  EXPECT_GT(pil.report.exchanges, 400u);
  EXPECT_EQ(pil.report.crc_errors, 0u);
  EXPECT_TRUE(pil.metrics.settled)
      << "final speed " << pil.speed.last_value();
  EXPECT_NEAR(pil.speed.last_value(), mil.speed.last_value(), 8.0);
  EXPECT_GT(pil.report.round_trip_us().mean(), 0.0);
}

TEST_F(ServoFixture, PilSlowBaudDegradesOrMissesDeadlines) {
  auto cfg = quick_config();
  cfg.duration_s = 0.3;
  ServoSystem servo(cfg);
  const auto pil = servo.run_pil({.baud = 9600});
  // 1 kHz exchange over 9600 baud cannot close in time:
  // the frames alone take > 1 ms of wire time.
  EXPECT_GT(pil.report.deadline_misses, 0u);
  EXPECT_GT(pil.report.comm_overhead_ratio, 0.9);
}

TEST_F(ServoFixture, JitterInjectionDegradesControlQuality) {
  auto cfg = quick_config();
  ServoSystem base(cfg);
  const auto clean = base.run_hil();
  ServoSystem jittered(cfg);
  ServoSystem::HilOptions opts;
  // Deterministic +-40% period jitter.
  opts.timer_jitter = [](std::uint64_t k) {
    return (k % 2 == 0) ? sim::microseconds(400) : -sim::microseconds(400);
  };
  const auto noisy = jittered.run_hil(opts);
  EXPECT_GE(noisy.iae, clean.iae * 0.9);
  EXPECT_GT(noisy.jitter_us, clean.jitter_us + 100.0);
}

TEST_F(ServoFixture, ModeChartSwitchesToManualDuty) {
  // Drive the mode key high in MIL: the chart must select the manual duty.
  ServoConfig cfg = quick_config();
  ServoSystem servo(cfg);
  auto* key_src = dynamic_cast<blocks::ConstantBlock*>(
      servo.controller().inner().find("key_mode_src"));
  ASSERT_NE(key_src, nullptr);
  key_src->set_value(1.0);
  const auto result = servo.run_mil();
  EXPECT_EQ(servo.mode_chart().active_state(), "manual");
  // Manual duty 0.2 -> steady speed near 0.2 * no-load speed.
  const double expected =
      0.2 * cfg.motor.supply_voltage * cfg.motor.kt /
      (cfg.motor.resistance * cfg.motor.damping + cfg.motor.kt * cfg.motor.ke);
  EXPECT_NEAR(result.speed.last_value(), expected, expected * 0.1);
}

TEST_F(ServoFixture, HwFidelityMakesMilPredictive) {
  // The ablation of the paper's central fidelity claim: with a coarse
  // encoder, the PE-block MIL predicts the HIL reality; the "trivial
  // pass-through" simulation of other targets does not.
  auto cfg = quick_config();
  cfg.duration_s = 0.8;
  cfg.encoder_lines = 16;  // speed LSB ~98 rad/s before filtering
  core::ServoSystem hw_servo(cfg);
  const auto hil = hw_servo.run_hil();
  const auto mil_hw = hw_servo.run_mil();
  cfg.mil_hw_fidelity = false;
  core::ServoSystem ideal_servo(cfg);
  const auto mil_ideal = ideal_servo.run_mil();

  const double err_hw = std::abs(mil_hw.iae - hil.iae);
  const double err_ideal = std::abs(mil_ideal.iae - hil.iae);
  EXPECT_LT(err_hw, err_ideal / 5.0);
  // The ideal simulation predicts no quantization-induced overshoot at
  // all; the hardware-faithful one sees what the HIL run sees.
  EXPECT_LT(mil_ideal.metrics.overshoot_percent, 1.0);
  EXPECT_NEAR(mil_hw.metrics.overshoot_percent,
              hil.metrics.overshoot_percent, 2.0);
}

TEST_F(ServoFixture, PortToMcuWithoutDecoderFailsValidation) {
  auto cfg = quick_config();
  ServoSystem servo(cfg);
  auto diags = servo.project().select_derivative("HCS08GB60");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_NE(diags.to_string().find("quadrature"), std::string::npos);
}

TEST_F(ServoFixture, PortToColdFireRevalidatesAndRuns) {
  auto cfg = quick_config();
  cfg.derivative = "MCF5235";
  ServoSystem servo(cfg);
  auto diags = servo.validate();
  EXPECT_FALSE(diags.has_errors()) << diags.to_string();
  const auto hil = servo.run_hil();
  EXPECT_TRUE(hil.metrics.settled);
}

// ------------------------------------------------------- MIL bit golden

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

template <std::size_t N>
void expect_log_bits(const model::SampleLog& log,
                     const std::uint64_t (&golden)[N], const char* what) {
  ASSERT_EQ(log.size(), N) << what;
  for (std::size_t i = 0; i < N; ++i) {
    const double t = static_cast<double>(i) * 1e6 * 1e-9;  // engine grid
    if (bits_of(log.time_at(i)) != bits_of(t) ||
        bits_of(log.value_at(i)) != golden[i]) {
      ADD_FAILURE() << what << " leaves the golden at sample " << i
                    << ": t=" << log.time_at(i) << " value=" << std::hexfloat
                    << log.value_at(i);
      return;
    }
  }
}

TEST(ServoMilGolden, DefaultConfigRunIsBitExact) {
  ServoSystem servo{ServoConfig{}};
  const auto r = servo.run_mil();
  EXPECT_EQ(bits_of(r.iae), golden::kIaeBits) << std::hexfloat << r.iae;
  expect_log_bits(r.speed, golden::kSpeedBits, "speed");
  expect_log_bits(r.duty, golden::kDutyBits, "duty");
}

// ------------------------------------------------- ServoConfig validation

TEST(ServoConfigValidation, DefaultConfigValidatesClean) {
  const auto diags = validate(ServoConfig{});
  EXPECT_TRUE(diags.empty()) << diags.to_string();
}

// core::pwm_modulo is the value the servo's own PWM bean solves, for the
// default switching frequency and for another one.
TEST(ServoPwmModulo, EqualsTheSolvedBeanModulo) {
  ServoConfig slow;
  slow.pwm_frequency_hz = 8000.0;
  for (const ServoConfig& cfg : {ServoConfig{}, slow}) {
    ServoSystem servo(cfg);
    EXPECT_EQ(pwm_modulo(cfg),
              servo.pwm_block().bean().properties().get_int("modulo"))
        << cfg.pwm_frequency_hz;
  }
  EXPECT_EQ(pwm_modulo(ServoConfig{}), 3000);
  EXPECT_NE(pwm_modulo(slow), pwm_modulo(ServoConfig{}));
}

// An unachievable PWM frequency leaves no modulo from the bean's earlier
// 20 kHz solve, and run_mil() refuses to run instead of quantising the
// duty at that stale granularity.
TEST(ServoPwmModulo, UnachievableFrequencyMakesRunMilThrow) {
  for (const double hz : {7.3e6, 9.1e6, 6.9e6}) {
    ServoConfig cfg;
    cfg.pwm_frequency_hz = hz;
    cfg.duration_s = 0.01;
    ServoSystem servo(cfg);
    EXPECT_TRUE(servo.validate().has_errors()) << hz;
    EXPECT_EQ(servo.pwm_block().bean().properties().get_int("modulo"), 0)
        << hz;
    EXPECT_EQ(pwm_modulo(cfg), 0) << hz;
    EXPECT_THROW(servo.run_mil(), std::invalid_argument) << hz;
  }
}

struct BadField {
  const char* component;
  std::function<void(ServoConfig&)> spoil;
  const char* variant = "";  ///< tells apart cases of one component
};

// CTest lists a table row as its case name followed by gtest's print of
// the parameter; without this, that print is the raw bytes of the struct,
// which start with the address of `component` and so move with ASLR.
void PrintTo(const BadField& field, std::ostream* os) {
  *os << field.component;
  if (*field.variant != '\0') *os << " (" << field.variant << ")";
}

class ServoConfigRejects : public ::testing::TestWithParam<BadField> {};

// One error diagnostic naming `component`, and the model refuses to run:
// either its construction or run_mil() throws.
void expect_rejected(ServoConfig cfg, const std::string& component) {
  const auto diags = validate(cfg);
  ASSERT_EQ(diags.size(), 1u) << diags.to_string();
  EXPECT_EQ(diags.items()[0].severity, util::Severity::kError);
  EXPECT_EQ(diags.items()[0].component, component);
  cfg.duration_s = std::min(cfg.duration_s, 0.01);  // keep a bad run short
  EXPECT_THROW(ServoSystem(cfg).run_mil(), std::invalid_argument);
}

TEST_P(ServoConfigRejects, WithOneDiagnosticAndRunMilThrows) {
  ServoConfig cfg;
  GetParam().spoil(cfg);
  expect_rejected(cfg, GetParam().component);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

INSTANTIATE_TEST_SUITE_P(
    Fields, ServoConfigRejects,
    ::testing::Values(
        BadField{"servo.encoder_lines",
                 [](ServoConfig& c) { c.encoder_lines = 0; }},
        BadField{"servo.speed_filter_taps",
                 [](ServoConfig& c) { c.speed_filter_taps = 0; }},
        BadField{"servo.pwm_frequency_hz",
                 [](ServoConfig& c) { c.pwm_frequency_hz = -1.0; }},
        BadField{"servo.duration_s",
                 [](ServoConfig& c) { c.duration_s = -0.5; }},
        BadField{"servo.motor.inertia",
                 [](ServoConfig& c) { c.motor.inertia = 0.0; }},
        BadField{"servo.motor.inductance",
                 [](ServoConfig& c) { c.motor.inductance = kNaN; }},
        BadField{"servo.motor.resistance",
                 [](ServoConfig& c) { c.motor.resistance = -2.0; }},
        BadField{"servo.setpoint_time",
                 [](ServoConfig& c) { c.setpoint_time = kNaN; }},
        BadField{"servo.motor.kt", [](ServoConfig& c) { c.motor.kt = kNaN; }},
        BadField{"servo.motor.ke", [](ServoConfig& c) { c.motor.ke = kInf; }},
        BadField{"servo.motor.supply_voltage",
                 [](ServoConfig& c) { c.motor.supply_voltage = -kInf; }},
        BadField{"servo.motor.damping",
                 [](ServoConfig& c) { c.motor.damping = kNaN; }},
        BadField{"servo.motor.damping",
                 [](ServoConfig& c) { c.motor.damping = -1.0; }, "negative"}),
    [](const ::testing::TestParamInfo<BadField>& info) {
      std::string name = info.param.component + std::strlen("servo.");
      for (char& ch : name) {
        if (ch == '.') ch = '_';
      }
      if (*info.param.variant != '\0') {
        name += std::string("_") + info.param.variant;
      }
      return name;
    });

// Motors far stiffer than the 1 ms control period (|lambda| h about 2e4
// and 1e5), which an RK4 substep of 250 us could not integrate: the exact
// step runs them, and the loop settles.
class StiffMotorRuns : public ::testing::TestWithParam<BadField> {};

TEST_P(StiffMotorRuns, MilToAFiniteSettledResult) {
  ServoConfig cfg;
  cfg.duration_s = 0.5;
  GetParam().spoil(cfg);
  const auto diags = validate(cfg);
  EXPECT_TRUE(diags.empty()) << diags.to_string();
  const auto r = ServoSystem(cfg).run_mil();
  ASSERT_FALSE(r.speed.empty());
  EXPECT_TRUE(std::isfinite(r.iae));
  EXPECT_TRUE(std::isfinite(r.speed.last_value()));
  EXPECT_TRUE(r.metrics.settled);
  EXPECT_NEAR(r.speed.last_value(), cfg.setpoint, 0.05 * cfg.setpoint);
}

INSTANTIATE_TEST_SUITE_P(
    StiffMotors, StiffMotorRuns,
    ::testing::Values(
        BadField{"servo.motor",
                 [](ServoConfig& c) { c.motor.inductance = 1e-7; },
                 "stiff_inductance"},
        BadField{"servo.motor",
                 [](ServoConfig& c) { c.motor.inertia = 1e-12; },
                 "stiff_inertia"}),
    [](const ::testing::TestParamInfo<BadField>& info) {
      return std::string(info.param.variant);
    });

// run_pil's host plant: a held duty command drives the motor through the
// supply gain.  After every advance_to() the motor's outputs show the state
// the engine committed, which is what the PIL sensor frame reads.
TEST(ServoPilHost, SensorReadsTheCommittedMotorState) {
  const ServoConfig cfg;
  model::Model host("pil_host");
  auto& duty_cmd = host.add<blocks::ConstantBlock>("duty_cmd", 0.0);
  auto& drive =
      host.add<blocks::GainBlock>("drive", cfg.motor.supply_voltage);
  drive.set_sample_time(model::SampleTime::continuous());
  auto& motor = host.add<plant::DcMotorBlock>("motor", cfg.motor);
  host.connect(duty_cmd, 0, drive, 0);
  host.connect(drive, 0, motor, 0);
  model::Engine engine(host, {.stop_time = 1.0, .base_period = cfg.period_s});
  engine.initialize();
  for (int k = 1; k <= 50; ++k) {
    duty_cmd.set_value(0.2 + 0.01 * (k % 7));
    engine.advance_to(k * cfg.period_s);
    double state[3];
    motor.read_states(state);
    ASSERT_GT(state[1], 0.0);
    // Outputs: speed, angle, current; states: current, speed, angle.
    EXPECT_EQ(motor.out(0).as_double(), state[1]) << "step " << k;
    EXPECT_EQ(motor.out(1).as_double(), state[2]) << "step " << k;
    EXPECT_EQ(motor.out(2).as_double(), state[0]) << "step " << k;
  }
}

TEST(ServoConfigValidation, RejectsZeroPeriod) {
  ServoConfig cfg;
  cfg.period_s = 0.0;
  expect_rejected(cfg, "servo.period_s");
}

TEST(ServoConfigValidation, RejectsNaNSetpoint) {
  ServoConfig cfg;
  cfg.setpoint = kNaN;
  expect_rejected(cfg, "servo.setpoint");
}

TEST(ServoConfigValidation, RejectsInfiniteKp) {
  ServoConfig cfg;
  cfg.kp = kInf;
  expect_rejected(cfg, "servo.kp");
}

TEST(ServoConfigValidation, RejectsNaNKi) {
  ServoConfig cfg;
  cfg.ki = kNaN;
  expect_rejected(cfg, "servo.ki");
}

}  // namespace
}  // namespace iecd::core
