#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <span>
#include <stdexcept>
#include <vector>

#include "batch/speed_pi.hpp"
#include "blocks/sources.hpp"
#include "blocks/math_blocks.hpp"
#include "mcu/derivative.hpp"
#include "mcu/mcu.hpp"
#include "model/engine.hpp"
#include "periph/pwm.hpp"
#include "periph/quadrature_decoder.hpp"
#include "plant/dc_motor.hpp"
#include "plant/encoder.hpp"
#include "plant/simple_plants.hpp"
#include "sim/world.hpp"
#include "sim/zoh_signal.hpp"

namespace iecd::plant {
namespace {

double no_load_speed(const DcMotorParams& p, double voltage) {
  // Steady state: i = (u - Ke w)/R, Kt i = b w  =>
  // w = u Kt / (R b + Kt Ke).
  return voltage * p.kt / (p.resistance * p.damping + p.kt * p.ke);
}

TEST(DcMotorBlock, SteadyStateSpeedMatchesClosedForm) {
  model::Model m("motor");
  DcMotorParams params;
  auto& u = m.add<blocks::ConstantBlock>("u", 12.0);
  auto& motor = m.add<DcMotorBlock>("motor", params);
  m.connect(u, 0, motor, 0);
  model::Engine eng(m, {.stop_time = 1.0, .base_period = 1e-4});
  eng.run();
  model::SimContext ctx{1.0, 1e-4, false};
  motor.output(ctx);
  EXPECT_NEAR(motor.out(0).as_double(), no_load_speed(params, 12.0), 0.5);
}

TEST(DcMotorBlock, AngleIsIntegralOfSpeed) {
  model::Model m("motor");
  auto& u = m.add<blocks::ConstantBlock>("u", 12.0);
  auto& motor = m.add<DcMotorBlock>("motor", DcMotorParams{});
  m.connect(u, 0, motor, 0);
  model::Engine eng(m, {.stop_time = 2.0, .base_period = 1e-4});
  eng.run();
  model::SimContext ctx{2.0, 1e-4, false};
  motor.output(ctx);
  const double w_ss = motor.out(0).as_double();
  const double theta = motor.out(1).as_double();
  // After the short transient the angle grows at w_ss; 2 s of mostly
  // steady rotation.
  EXPECT_NEAR(theta, w_ss * 2.0, w_ss * 0.1);
}

TEST(DcMotorBlock, LoadTorqueSlowsTheShaft) {
  model::Model m("motor");
  auto& u = m.add<blocks::ConstantBlock>("u", 12.0);
  auto& motor = m.add<DcMotorBlock>("motor", DcMotorParams{});
  motor.set_load([](double, double) { return 0.01; });  // N m
  m.connect(u, 0, motor, 0);
  model::Engine eng(m, {.stop_time = 1.0, .base_period = 1e-4});
  eng.run();
  model::SimContext ctx{1.0, 1e-4, false};
  motor.output(ctx);
  // Steady-state droop = tau * R / (R b + Kt Ke) ~ 7.9 rad/s here.
  EXPECT_LT(motor.out(0).as_double(),
            no_load_speed(DcMotorParams{}, 12.0) - 5.0);
}

// Counts the engine's calls into a DC motor block.
struct CountingMotor : DcMotorBlock {
  using DcMotorBlock::DcMotorBlock;
  void output(const model::SimContext& ctx) override {
    ++outputs;
    DcMotorBlock::output(ctx);
  }
  void derivatives(const model::SimContext& ctx,
                   std::span<double> dx) const override {
    ++derivative_calls;
    DcMotorBlock::derivatives(ctx, dx);
  }
  void step_exact(const model::SimContext& ctx, double h) override {
    ++exact_steps;
    DcMotorBlock::step_exact(ctx, h);
  }
  int outputs = 0;
  mutable int derivative_calls = 0;
  int exact_steps = 0;
};

TEST(DcMotorBlock, HeldDriveTakesOneExactStepPerMajorStep) {
  // The servo plant's shape: a held duty through the continuous supply
  // gain.  The gain is hoisted, so the motor is all that is left of the
  // stage program, and each major step is one exact step; the step itself
  // leaves the outputs current, so output() runs only in initialize() and
  // the major pass.
  model::Model m("servo_plant");
  auto& duty = m.add<blocks::ConstantBlock>("duty", 0.5);
  duty.set_sample_time(model::SampleTime::discrete(1e-3));
  auto& drive = m.add<blocks::GainBlock>("drive", 24.0);
  drive.set_sample_time(model::SampleTime::continuous());
  auto& motor = m.add<CountingMotor>("motor", DcMotorParams{});
  m.connect(duty, 0, drive, 0);
  m.connect(drive, 0, motor, 0);
  constexpr int kSteps = 10;
  model::Engine eng(m, {.stop_time = kSteps * 1e-3, .minor_steps = 4});
  eng.run();
  EXPECT_EQ(motor.exact_steps, kSteps);
  EXPECT_EQ(motor.derivative_calls, 0);
  EXPECT_EQ(motor.outputs, 1 + kSteps);
}

TEST(DcMotorBlock, VaryingDriveFallsBackToRk4) {
  // A continuous sine drive moves inside the major step, so the engine
  // integrates the motor by RK4: four substeps of four stages each.
  model::Model m("sine_plant");
  auto& drive = m.add<blocks::SineBlock>("drive", 12.0, 50.0, 0.0, 12.0);
  drive.set_sample_time(model::SampleTime::continuous());
  auto& motor = m.add<CountingMotor>("motor", DcMotorParams{});
  m.connect(drive, 0, motor, 0);
  constexpr int kSteps = 10;
  model::Engine eng(m, {.stop_time = kSteps * 1e-3, .base_period = 1e-3,
                        .minor_steps = 4});
  eng.run();
  EXPECT_EQ(motor.exact_steps, 0);
  EXPECT_EQ(motor.derivative_calls, 16 * kSteps);
  EXPECT_EQ(motor.outputs, 1 + (1 + 16) * kSteps);
}

TEST(DcMotorBlock, ExactStepMatchesDcMotorSimAtEveryPeriod) {
  // The engine's block and the event-world plant, fed the same duty and
  // load torque, both held and changing at every 1 ms boundary, agree at
  // every boundary: both take one 1 ms map per period.
  const DcMotorParams params;
  constexpr int kPeriods = 300;
  const auto duty_at = [](int k) { return 0.5 + 0.4 * std::sin(0.1 * k); };
  const auto torque_at = [](int k) { return 0.004 * std::cos(0.07 * k); };

  DcMotorSim sim_motor(params);
  sim::ZohSignal duty(duty_at(0));
  sim::ZohSignal torque(torque_at(0));
  for (int k = 1; k < kPeriods; ++k) {
    duty.set(sim::milliseconds(k), duty_at(k));
    torque.set(sim::milliseconds(k), torque_at(k));
  }
  sim_motor.drive_from_duty(&duty);
  sim_motor.load_from(&torque);

  model::Model m("block");
  auto& duty_cmd = m.add<blocks::ConstantBlock>("duty", duty_at(0));
  auto& drive = m.add<blocks::GainBlock>("drive", params.supply_voltage);
  drive.set_sample_time(model::SampleTime::continuous());
  auto& motor = m.add<DcMotorBlock>("motor", params);
  motor.set_load([&](double t, double) {
    return torque_at(static_cast<int>(std::lround(t * 1e3)));
  });
  m.connect(duty_cmd, 0, drive, 0);
  m.connect(drive, 0, motor, 0);
  model::Engine eng(m, {.stop_time = 1.0, .base_period = 1e-3});
  eng.initialize();
  for (int k = 0; k < kPeriods; ++k) {
    duty_cmd.set_value(duty_at(k));
    eng.advance_to((k + 1) * 1e-3);
    const sim::SimTime at = sim::milliseconds(k + 1);
    double state[3];
    motor.read_states(state);
    const double w = sim_motor.speed_at(at);
    const double theta = sim_motor.angle_at(at);
    ASSERT_GT(w, 0.0);
    ASSERT_NEAR(state[1], w, 1e-12 * w) << "period " << k + 1;
    ASSERT_NEAR(state[2], theta, 1e-12 * theta) << "period " << k + 1;
  }
}

TEST(DcMotorSim, MatchesBlockDynamics) {
  // The event-world integrator and the model block must agree.
  DcMotorParams params;
  DcMotorSim sim_motor(params);
  sim::ZohSignal duty(0.5);
  sim_motor.drive_from_duty(&duty);

  model::Model m("ref");
  auto& u = m.add<blocks::ConstantBlock>("u", 0.5 * params.supply_voltage);
  auto& block_motor = m.add<DcMotorBlock>("motor", params);
  m.connect(u, 0, block_motor, 0);
  model::Engine eng(m, {.stop_time = 0.2, .base_period = 1e-4});
  eng.run();
  model::SimContext ctx{0.2, 1e-4, false};
  block_motor.output(ctx);

  const double ref_speed = block_motor.out(0).as_double();
  EXPECT_NEAR(sim_motor.speed_at(sim::milliseconds(200)), ref_speed,
              std::abs(ref_speed) * 0.01);
}

TEST(DcMotorSim, RespondsToDutyChanges) {
  DcMotorSim motor(DcMotorParams{});
  sim::ZohSignal duty(0.0);
  motor.drive_from_duty(&duty);
  EXPECT_NEAR(motor.speed_at(sim::milliseconds(100)), 0.0, 1e-9);
  duty.set(sim::milliseconds(100), 1.0);
  const double w = motor.speed_at(sim::milliseconds(400));
  EXPECT_GT(w, 100.0);
}

TEST(DcMotorSim, StepRuleGivesTheDefaultMotorOneStepPerPoll) {
  DcMotorParams broken;
  broken.inertia = 0.0;
  EXPECT_THROW(DcMotorSim{broken}, std::invalid_argument);
}

TEST(DcMotorSim, RejectsNonFiniteMotorConstants) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Bad {
    const char* component;
    double DcMotorParams::*field;
    double value;
  };
  const Bad cases[] = {
      {"motor.supply_voltage", &DcMotorParams::supply_voltage, kNaN},
      {"motor.kt", &DcMotorParams::kt, kInf},
      {"motor.ke", &DcMotorParams::ke, -kInf},
      {"motor.damping", &DcMotorParams::damping, kNaN},
      {"motor.damping", &DcMotorParams::damping, -1e-6},
      {"motor.resistance", &DcMotorParams::resistance, 0.0},
      {"motor.inductance", &DcMotorParams::inductance, kInf},
      {"motor.inertia", &DcMotorParams::inertia, -2e-5},
  };
  EXPECT_TRUE(validate(DcMotorParams{}).empty());
  for (const Bad& bad : cases) {
    DcMotorParams params;
    params.*bad.field = bad.value;
    const util::DiagnosticList d = validate(params);
    ASSERT_EQ(d.size(), 1u) << bad.component;
    EXPECT_EQ(d.items()[0].severity, util::Severity::kError);
    EXPECT_EQ(d.items()[0].component, bad.component);
    EXPECT_THROW(DcMotorSim{params}, std::invalid_argument)
        << bad.component;
  }
  // Valid constants whose matrix overflows: R / L is inf.
  DcMotorParams overflow;
  overflow.inductance = 1e-320;
  EXPECT_TRUE(validate(overflow).empty());
  EXPECT_THROW(DcMotorSim{overflow}, std::invalid_argument);
}

TEST(DcMotorSim, QueryBehindCommittedStateThrows) {
  DcMotorSim motor(DcMotorParams{});
  sim::ZohSignal duty(0.5);
  duty.set(sim::microseconds(950), 0.8);
  motor.drive_from_duty(&duty);
  // Reaching 1 ms commits the state at the last duty change before it,
  // 950 us.
  const double w = motor.speed_at(sim::milliseconds(1));
  EXPECT_GT(w, 0.0);
  EXPECT_GT(motor.speed_at(sim::microseconds(950)), 0.0);
  EXPECT_THROW(motor.speed_at(sim::microseconds(500)), std::logic_error);
  EXPECT_THROW(motor.angle_at(sim::microseconds(949)), std::logic_error);
  EXPECT_EQ(motor.speed_at(sim::milliseconds(1)), w);
}

TEST(DcMotorSim, CommitsAtInputChangesAndAfterTheLongestStep) {
  // A duty change at 0.5 ms and then every 2 ms, read 300 us before every
  // whole millisecond: the state is committed at each change and 1 ms
  // after the last commit, so every read is one 200 us uncommitted step,
  // and only two step lengths need a map besides the 1 ms one the plant
  // builds up front.
  DcMotorSim motor(DcMotorParams{});
  sim::ZohSignal duty(0.5);
  for (int k = 0; k < 50; ++k) {
    duty.set(sim::microseconds(500 + 2000 * k), k % 2 == 0 ? 0.6 : 0.5);
  }
  motor.drive_from_duty(&duty);
  for (int k = 1; k <= 100; ++k) {
    motor.angle_at(sim::microseconds(1000 * k - 300));
  }
  EXPECT_EQ(motor.map_steps(), 200u);  // 100 commits, 100 reads
  EXPECT_EQ(motor.map_misses(), 2u);   // 500 us, 200 us
}

TEST(DcMotorSim, StiffMotorStaysFiniteAtItsOwnStep) {
  // A 12.5 us electrical time constant puts h |lambda| near 4 at one RK4
  // step per 50 us poll, past the 2.785 limit; the plant's exact map is
  // stable at any step.
  DcMotorParams params;
  params.inductance = 2.5e-5;
  DcMotorSim motor(params);
  sim::ZohSignal duty(0.5);
  motor.drive_from_duty(&duty);
  const double w = motor.speed_at(sim::milliseconds(300));
  EXPECT_NEAR(w, no_load_speed(params, 12.0), 0.01 * w);
}

// The motor's state derivatives with u and tau held.
void motor_derivatives(const DcMotorParams& p, const double (&y)[3], double u,
                       double tau, double (&dx)[3]) {
  dx[0] = (u - p.resistance * y[0] - p.ke * y[1]) / p.inductance;
  dx[1] = (p.kt * y[0] - p.damping * y[1] - tau) / p.inertia;
  dx[2] = y[1];
}

// One classic RK4 step of h seconds with u and tau held.
void rk4_step(const DcMotorParams& p, double (&y)[3], double h, double u,
              double tau) {
  double k1[3], k2[3], k3[3], k4[3], s[3];
  motor_derivatives(p, y, u, tau, k1);
  for (int i = 0; i < 3; ++i) s[i] = y[i] + 0.5 * h * k1[i];
  motor_derivatives(p, s, u, tau, k2);
  for (int i = 0; i < 3; ++i) s[i] = y[i] + 0.5 * h * k2[i];
  motor_derivatives(p, s, u, tau, k3);
  for (int i = 0; i < 3; ++i) s[i] = y[i] + h * k3[i];
  motor_derivatives(p, s, u, tau, k4);
  for (int i = 0; i < 3; ++i) {
    y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
  }
}

// Reference: the same dynamics under classic RK4 at a 50 ns step, fine
// enough that its own error is far below the tolerances checked.  Returns
// the state (current, speed, angle) at \p until.
std::array<double, 3> fine_state(const DcMotorParams& params,
                                 double (*volts)(double t), double until,
                                 double (*torque)(double t) = nullptr) {
  double y[3] = {0, 0, 0};
  const double h = 50e-9;
  const auto steps = static_cast<long>(std::llround(until / h));
  for (long k = 0; k < steps; ++k) {
    const double t0 = static_cast<double>(k) * h;
    rk4_step(params, y, h, volts(t0 + 0.5 * h),
             torque ? torque(t0 + 0.5 * h) : 0.0);
  }
  return {y[0], y[1], y[2]};
}

TEST(DcMotorSim, TransientMatchesExactSolution) {
  // From rest at 12 V the plant's exact step agrees with the fine
  // reference to rounding, inside the fast electrical transient too.
  DcMotorParams params;
  DcMotorSim motor(params);
  sim::ZohSignal duty(0.5);
  motor.drive_from_duty(&duty);
  const auto twelve_volts = [](double) { return 12.0; };
  for (const sim::SimTime at : {sim::microseconds(500), sim::milliseconds(2)}) {
    const std::array<double, 3> ref =
        fine_state(params, twelve_volts, sim::to_seconds(at));
    ASSERT_GT(ref[1], 0.0);
    EXPECT_NEAR(motor.speed_at(at), ref[1], 1e-12 * ref[1]);
    EXPECT_NEAR(motor.angle_at(at), ref[2], 1e-12 * ref[2]);
  }
}

TEST(DcMotorSim, ShortDutyPulseIsIntegratedExactly) {
  // A 7 us full-duty pulse between poll instants: the plant's step ends
  // at both duty changes, so the pulse is neither missed nor stretched.
  DcMotorParams params;
  DcMotorSim motor(params);
  sim::ZohSignal duty(0.0);
  motor.drive_from_duty(&duty);
  duty.set(sim::microseconds(60), 1.0);
  duty.set(sim::microseconds(67), 0.0);
  const double w = motor.speed_at(sim::milliseconds(2));
  const double ref = fine_state(
      params, [](double t) { return t >= 60e-6 && t < 67e-6 ? 24.0 : 0.0; },
      2e-3)[1];
  ASSERT_GT(ref, 0.0);
  EXPECT_NEAR(w, ref, 1e-6 * ref);
}

TEST(DcMotorSim, TorquePulseBetweenPollsIsIntegratedExactly) {
  // A 7 us load pulse between poll instants on an undriven shaft: the
  // plant's step ends at both torque changes, so the pulse is neither
  // missed nor stretched.
  DcMotorParams params;
  DcMotorSim motor(params);
  sim::ZohSignal torque(0.0);
  motor.load_from(&torque);
  torque.set(sim::microseconds(60), 0.5);
  torque.set(sim::microseconds(67), 0.0);
  const double w = motor.speed_at(sim::milliseconds(2));
  const double ref =
      fine_state(
          params, [](double) { return 0.0; }, 2e-3,
          [](double t) { return t >= 60e-6 && t < 67e-6 ? 0.5 : 0.0; })[1];
  ASSERT_LT(ref, 0.0);
  EXPECT_NEAR(w, ref, 1e-6 * -ref);
}

TEST(Encoder, CountsMatchRevolutions) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  periph::QuadDecPeripheral qdec(mcu, periph::QuadDecConfig{});
  DcMotorSim motor(DcMotorParams{});
  sim::ZohSignal duty(0.5);
  motor.drive_from_duty(&duty);
  IncrementalEncoder encoder(world, motor, qdec, {100});
  encoder.start();
  world.run_for(sim::seconds_i(1));
  // The raw state lags: the plant integrates lazily, as far as a read needs.
  const double revs = motor.angle_at(world.now()) / (2.0 * std::numbers::pi);
  EXPECT_GT(revs, 5.0);
  EXPECT_NEAR(static_cast<double>(qdec.extended_position()), revs * 400.0,
              2.0);
  EXPECT_EQ(qdec.index_pulses(), static_cast<std::uint64_t>(revs));
}

TEST(Encoder, TracksReversal) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  periph::QuadDecPeripheral qdec(mcu, periph::QuadDecConfig{});
  DcMotorSim motor(DcMotorParams{});
  sim::ZohSignal duty(0.5);
  motor.drive_from_duty(&duty);
  // From 0.5 s a load of 0.5 N m, beyond the 0.3 N m the half-duty motor
  // can hold, drives the shaft backward: the decoder must count down.
  sim::ZohSignal torque(0.0);
  torque.set(sim::milliseconds(500), 0.5);
  motor.load_from(&torque);
  IncrementalEncoder encoder(world, motor, qdec, {100});
  encoder.start();
  world.run_for(sim::milliseconds(500));
  const auto fwd = qdec.extended_position();
  EXPECT_GT(fwd, 1000);
  world.run_for(sim::seconds_i(2));
  EXPECT_LT(motor.speed_at(world.now()), -50.0);
  EXPECT_LT(qdec.extended_position(), fwd - 1000);
  const double counts =
      motor.angle_at(world.now()) / (2.0 * std::numbers::pi) * 400.0;
  EXPECT_NEAR(static_cast<double>(qdec.extended_position()), counts, 2.0);
}

TEST(Encoder, PlainDecoderCountsIndexPulsesAtItsReads) {
  // A decoder without index interrupt or clear-on-index: each register
  // read counts the revolutions crossed since the last one and latches the
  // position it reads, forward and, once the load takes over, backward.
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  periph::QuadDecPeripheral qdec(mcu, periph::QuadDecConfig{});
  DcMotorSim motor(DcMotorParams{});
  sim::ZohSignal duty(0.5);
  sim::ZohSignal torque(0.0);
  torque.set(sim::milliseconds(300), 0.5);
  motor.drive_from_duty(&duty);
  motor.load_from(&torque);
  IncrementalEncoder encoder(world, motor, qdec, {100});
  encoder.start();
  struct Seen {
    std::uint64_t pulses;
    std::int16_t latch;
    bool operator==(const Seen&) const = default;
  };
  std::vector<Seen> seen;
  world.queue().schedule_every(sim::milliseconds(1), sim::milliseconds(1),
                               [&] {
                                 qdec.position();
                                 seen.push_back(
                                     {qdec.index_pulses(), qdec.index_latch()});
                               });
  world.run_for(sim::milliseconds(1500));

  // The same reads of an unobserved twin plant.
  DcMotorSim twin(DcMotorParams{});
  twin.drive_from_duty(&duty);
  twin.load_from(&torque);
  std::vector<Seen> expected;
  Seen now{0, 0};
  double rev = 0.0;
  double lowest = 0.0;
  for (sim::SimTime t = sim::milliseconds(1); t <= sim::milliseconds(1500);
       t += sim::milliseconds(1)) {
    const double angle = twin.angle_at(t);
    const double r = std::floor(angle / (2.0 * std::numbers::pi));
    if (r != rev) {
      now.pulses += static_cast<std::uint64_t>(std::abs(r - rev));
      now.latch = periph::angle_to_counts(angle, 400.0);
      rev = r;
    }
    lowest = std::min(lowest, r);
    expected.push_back(now);
  }
  ASSERT_GE(expected.back().pulses, 10u);
  ASSERT_LT(lowest, 0.0);  // the shaft ran backward past its start
  EXPECT_EQ(seen, expected);
}

TEST(Encoder, IndexInterruptIsRaisedAtItsPollInstant) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  constexpr mcu::IrqVector kVec = periph::kIrqQdecBase;
  std::vector<sim::SimTime> raised;
  mcu::IsrHandler handler;
  handler.body = [&]() -> std::uint64_t {
    raised.push_back(world.now());
    return 10;
  };
  handler.commit = [] {};
  mcu.intc().register_vector(kVec, 0, std::move(handler));
  periph::QuadDecPeripheral qdec(mcu, periph::QuadDecConfig{false, kVec});
  DcMotorSim motor(DcMotorParams{});
  sim::ZohSignal duty(0.5);
  motor.drive_from_duty(&duty);
  IncrementalEncoder encoder(world, motor, qdec, {100});
  encoder.start();
  world.run_for(sim::milliseconds(200));

  // The poll instants at which the shaft enters a new revolution, from an
  // unobserved twin plant read at those instants.
  DcMotorSim twin(DcMotorParams{});
  twin.drive_from_duty(&duty);
  std::vector<sim::SimTime> expected;
  double rev = 0.0;
  for (sim::SimTime t = kPollInterval; t <= sim::milliseconds(200);
       t += kPollInterval) {
    const double r = std::floor(twin.angle_at(t) / (2.0 * std::numbers::pi));
    if (r != rev) expected.push_back(t);
    rev = r;
  }
  ASSERT_GE(expected.size(), 3u);
  EXPECT_EQ(raised, expected);
  EXPECT_EQ(qdec.index_pulses(), expected.size());
  // The plant commits on the poll grid, so each wake-up is one 50 us step
  // from one cached map.  The twin, read at the same instants off the
  // grid, steps from commits 1 ms apart and builds a map at every read.
  EXPECT_EQ(motor.map_steps(), 4000u);
  EXPECT_EQ(motor.map_misses(), 1u);
  EXPECT_EQ(twin.map_misses(), 4000u);
}

TEST(Encoder, DestructorDetachesFromPlantAndDecoder) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  periph::QuadDecPeripheral qdec(mcu, periph::QuadDecConfig{});
  DcMotorSim motor(DcMotorParams{});
  sim::ZohSignal duty(0.5);
  motor.drive_from_duty(&duty);
  auto first = std::make_unique<IncrementalEncoder>(world, motor, qdec,
                                                    EncoderParams{100});
  first->start();
  world.run_for(sim::milliseconds(100));
  EXPECT_GT(qdec.extended_position(), 0);
  first.reset();
  // The encoder is gone: reading the decoder or the plant must not reach
  // it, and the count stays where the last read left it.
  const auto held = qdec.extended_position();
  world.run_for(sim::milliseconds(100));
  EXPECT_GT(motor.angle_at(world.now()), 0.0);
  EXPECT_EQ(qdec.extended_position(), held);

  IncrementalEncoder second(world, motor, qdec, {100});
  second.start();
  world.run_for(sim::milliseconds(10));
  const auto live = qdec.extended_position();
  EXPECT_GT(live, held);
}

// A servo loop on the HIL coupling: PWM average output -> plant -> encoder
// -> decoder -> 1 kHz speed loop -> PWM.  Returns the bits of every
// decoder position the loop read and every true speed recorded at 1 kHz.
// \p observe adds speed/angle probes every 37 us and decoder reads every
// 23 us, most of them between the plant's commit instants.
std::vector<std::uint64_t> servo_rig_trace(bool observe) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  periph::QuadDecPeripheral qdec(mcu, periph::QuadDecConfig{});
  periph::PwmPeripheral pwm(mcu, periph::PwmConfig{});  // 60 kHz
  DcMotorSim motor(DcMotorParams{});
  motor.drive_from_duty(&pwm.average_output());
  IncrementalEncoder encoder(world, motor, qdec, {100});
  encoder.start();
  pwm.start();
  batch::SpeedPi loop({0.004, 0.12, 0.001, 100});
  std::vector<std::uint64_t> trace;
  world.queue().schedule_every(sim::milliseconds(1), [&] {
    const std::int16_t position = qdec.position();
    trace.push_back(static_cast<std::uint64_t>(position));
    trace.push_back(std::bit_cast<std::uint64_t>(motor.speed_at(world.now())));
    loop.step(position, world.now() >= sim::milliseconds(20) ? 100.0 : 0.0);
    pwm.set_duty_ratio(loop.duty());
  });
  if (observe) {
    world.queue().schedule_every(sim::microseconds(37), [&] {
      motor.speed_at(world.now());
      motor.angle_at(world.now());
    });
    world.queue().schedule_every(sim::microseconds(23),
                                 [&] { qdec.extended_position(); });
  }
  world.run_for(sim::milliseconds(150));
  return trace;
}

TEST(DcMotorSim, ProbesAndDecoderReadsLeaveTheServoLoopBitIdentical) {
  const auto plain = servo_rig_trace(false);
  const auto observed = servo_rig_trace(true);
  ASSERT_EQ(plain.size(), 300u);
  EXPECT_EQ(plain, observed);
}

TEST(WaterTank, FillsTowardEquilibrium) {
  model::Model m("tank");
  auto& u = m.add<blocks::ConstantBlock>("valve", 0.5);
  WaterTankBlock::Params params;
  params.outlet_area = 4.0e-4;  // equilibrium ~1.27 m, inside the tank
  auto& tank = m.add<WaterTankBlock>("tank", params);
  m.connect(u, 0, tank, 0);
  model::Engine eng(m, {.stop_time = 4000.0, .base_period = 0.1});
  eng.run();
  model::SimContext ctx{4000.0, 0.1, false};
  tank.output(ctx);
  // Equilibrium: inflow = outflow -> h = (q / (a sqrt(2g)))^2.
  const double q = params.inflow_gain * 0.5;
  const double h_eq =
      std::pow(q / (params.outlet_area * std::sqrt(2 * 9.81)), 2.0);
  EXPECT_NEAR(tank.out(0).as_double(), h_eq, h_eq * 0.02);
}

TEST(WaterTank, NeverOverflowsOrGoesNegative) {
  model::Model m("tank");
  auto& u = m.add<blocks::ConstantBlock>("valve", 1.0);
  WaterTankBlock::Params params;
  params.outlet_area = 1e-6;  // nearly plugged: must clamp at the brim
  auto& tank = m.add<WaterTankBlock>("tank", params);
  m.connect(u, 0, tank, 0);
  model::Engine eng(m, {.stop_time = 1200.0, .base_period = 0.05});
  eng.run();
  model::SimContext ctx{1200.0, 0.05, false};
  tank.output(ctx);
  EXPECT_LE(tank.out(0).as_double(), params.max_level + 1e-9);
}

TEST(ThermalPlant, HeatsToStaticGain) {
  model::Model m("thermal");
  auto& u = m.add<blocks::ConstantBlock>("heater", 0.5);
  ThermalPlantBlock::Params params;
  auto& plant = m.add<ThermalPlantBlock>("p", params);
  m.connect(u, 0, plant, 0);
  // tau = C * R = 300 s; run 5 tau.
  model::Engine eng(m, {.stop_time = 1500.0, .base_period = 0.1});
  eng.run();
  model::SimContext ctx{1500.0, 0.1, false};
  plant.output(ctx);
  const double t_eq =
      params.ambient + params.heater_power * 0.5 * params.thermal_resistance;
  EXPECT_NEAR(plant.out(0).as_double(), t_eq, 0.5);
}

}  // namespace
}  // namespace iecd::plant
