#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <string>

#include "blocks/continuous.hpp"
#include "blocks/custom.hpp"
#include "blocks/discrete.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/sinks.hpp"
#include "blocks/sources.hpp"
#include "model/engine.hpp"
#include "model/metrics.hpp"
#include "model/model.hpp"
#include "model/statechart.hpp"
#include "model/subsystem.hpp"
#include "model/value.hpp"

namespace iecd::model {
namespace {

using blocks::ConstantBlock;
using blocks::GainBlock;
using blocks::IntegratorBlock;
using blocks::ScopeBlock;
using blocks::StepBlock;
using blocks::SumBlock;
using blocks::UnitDelayBlock;

// -------------------------------------------------------------------- Value

TEST(Value, QuantizeToIntegerSaturates) {
  const Value v = Value::quantize(300.0, DataType::kUint8, std::nullopt);
  EXPECT_EQ(v.as_int(), 255);
  const Value w = Value::quantize(-5.0, DataType::kUint8, std::nullopt);
  EXPECT_EQ(w.as_int(), 0);
  const Value x = Value::quantize(40000.0, DataType::kInt16, std::nullopt);
  EXPECT_EQ(x.as_int(), 32767);
}

TEST(Value, QuantizeToFixedUsesFormat) {
  const auto fmt = fixpt::FixedFormat::s16(8);
  const Value v = Value::quantize(1.25, DataType::kFixed, fmt);
  EXPECT_EQ(v.type(), DataType::kFixed);
  EXPECT_DOUBLE_EQ(v.as_double(), 1.25);
  EXPECT_THROW(Value::quantize(1.0, DataType::kFixed, std::nullopt),
               std::invalid_argument);
}

TEST(Value, BoolAndDoubleRoundTrip) {
  EXPECT_TRUE(Value::of_bool(true).as_bool());
  EXPECT_EQ(Value::of_double(2.7).as_int(), 3);
  EXPECT_EQ(Value::quantize(0.4, DataType::kBool, std::nullopt).as_bool(),
            true);
  EXPECT_EQ(Value::quantize(0.0, DataType::kBool, std::nullopt).as_bool(),
            false);
}

TEST(Value, StorageBytesForFootprint) {
  EXPECT_EQ(storage_bytes(DataType::kDouble), 8u);
  EXPECT_EQ(storage_bytes(DataType::kInt16), 2u);
  EXPECT_EQ(storage_bytes(DataType::kBool), 1u);
}

// -------------------------------------------------------------------- Model

TEST(ModelGraph, SortedRespectsDataFlow) {
  Model m("t");
  auto& c = m.add<ConstantBlock>("c", 1.0);
  auto& g1 = m.add<GainBlock>("g1", 2.0);
  auto& g2 = m.add<GainBlock>("g2", 3.0);
  m.connect(g1, 0, g2, 0);  // declare g2 first in dependency terms
  m.connect(c, 0, g1, 0);
  const auto& order = m.sorted();
  const auto pos = [&](const Block* b) {
    return std::find(order.begin(), order.end(), b) - order.begin();
  };
  EXPECT_LT(pos(&c), pos(&g1));
  EXPECT_LT(pos(&g1), pos(&g2));
}

TEST(ModelGraph, AlgebraicLoopDetected) {
  Model m("loop");
  auto& g1 = m.add<GainBlock>("g1", 1.0);
  auto& g2 = m.add<GainBlock>("g2", 1.0);
  m.connect(g1, 0, g2, 0);
  m.connect(g2, 0, g1, 0);
  EXPECT_THROW(m.sorted(), std::logic_error);
  const auto diags = m.check();
  EXPECT_TRUE(diags.has_errors());
}

TEST(ModelGraph, DelayBreaksLoop) {
  Model m("fb");
  auto& g = m.add<GainBlock>("g", 0.5);
  auto& d = m.add<UnitDelayBlock>("d", 0.0);
  m.connect(g, 0, d, 0);
  m.connect(d, 0, g, 0);
  EXPECT_NO_THROW(m.sorted());
}

TEST(ModelGraph, UnconnectedInputWarns) {
  Model m("w");
  m.add<GainBlock>("g", 1.0);
  const auto diags = m.check();
  EXPECT_FALSE(diags.has_errors());
  EXPECT_TRUE(diags.has_warnings());
}

TEST(ModelGraph, RemoveDisconnectsDownstream) {
  Model m("r");
  auto& c = m.add<ConstantBlock>("c", 5.0);
  auto& g = m.add<GainBlock>("g", 1.0);
  m.connect(c, 0, g, 0);
  EXPECT_TRUE(m.remove("c"));
  EXPECT_FALSE(g.input_connected(0));
  EXPECT_EQ(m.block_count(), 1u);
}

// A block's outputs live in the block, so a reference taken before the
// model is sorted reads what the engine latched.
TEST(ModelGraph, OutReferenceTakenBeforeRunReadsTheLatchedValue) {
  Model m("ref");
  auto& c = m.add<ConstantBlock>("c", 2.0);
  auto& g = m.add<GainBlock>("g", 3.0);
  m.connect(c, 0, g, 0);
  const Value& y = g.out(0);
  Engine eng(m, {.stop_time = 0.01});
  eng.run();
  EXPECT_EQ(&y, &g.out(0));
  EXPECT_DOUBLE_EQ(y.as_double(), 6.0);
}

// An input fed from another model reads its driver's live value, and the
// shared zero once that driver is removed.
TEST(ModelGraph, CrossModelInputReadsItsDriverUntilRemoved) {
  Model drivers("drivers");
  Model consumers("consumers");
  auto& c = drivers.add<ConstantBlock>("c", 4.0);
  auto& g = consumers.add<GainBlock>("g", 0.5);
  consumers.connect(c, 0, g, 0);
  const SimContext ctx{};
  c.output(ctx);
  g.output(ctx);
  EXPECT_DOUBLE_EQ(g.out(0).as_double(), 2.0);
  c.set_value(-6.0);
  c.output(ctx);
  g.output(ctx);
  EXPECT_DOUBLE_EQ(g.out(0).as_double(), -3.0);
  EXPECT_TRUE(drivers.remove("c"));
  EXPECT_FALSE(g.input_connected(0));
  g.output(ctx);
  EXPECT_DOUBLE_EQ(g.out(0).as_double(), 0.0);
}

// A consumer that dies before its driver leaves the driver nothing to
// unbind: removing the driver afterwards touches no freed block.
TEST(ModelGraph, ConsumerModelMayDieBeforeItsDriver) {
  Model drivers("drivers");
  auto& c = drivers.add<ConstantBlock>("c", 1.0);
  {
    Model consumers("consumers");
    auto& g = consumers.add<GainBlock>("g", 1.0);
    consumers.connect(c, 0, g, 0);
    consumers.connect(c, 0, g, 0);  // rebinding keeps one sink entry
  }
  EXPECT_TRUE(drivers.remove("c"));
}

TEST(ModelGraph, OutOfRangeInputPortThrows) {
  Model m("ports");
  auto& c = m.add<ConstantBlock>("c", 1.0);
  auto& g = m.add<GainBlock>("g", 1.0);
  EXPECT_THROW(m.connect(c, 0, g, 1), std::out_of_range);
  EXPECT_THROW(m.connect(c, 1, g, 0), std::out_of_range);
  EXPECT_THROW(g.in_value(1), std::out_of_range);
  EXPECT_THROW(g.in_value(-1), std::out_of_range);
}

TEST(ModelGraph, DuplicateNamesRejected) {
  Model m("d");
  m.add<ConstantBlock>("x", 1.0);
  EXPECT_THROW(m.add<GainBlock>("x", 1.0), std::invalid_argument);
}

// ------------------------------------------------------------------- Engine

TEST(Engine, ConstantThroughGain) {
  Model m("cg");
  auto& c = m.add<ConstantBlock>("c", 2.0);
  auto& g = m.add<GainBlock>("g", 3.0);
  auto& scope = m.add<ScopeBlock>("s");
  m.connect(c, 0, g, 0);
  m.connect(g, 0, scope, 0);
  Engine eng(m, {.stop_time = 0.01});
  eng.run();
  EXPECT_DOUBLE_EQ(scope.log().last_value(), 6.0);
  EXPECT_EQ(eng.major_steps(), 10u);  // default 1 ms base
}

TEST(Engine, DiscreteAccumulatorMatchesClosedForm) {
  // y[k+1] = y[k] + T*u with u=1: after 1 s at T=1 ms, y = 1.0.
  Model m("acc");
  auto& c = m.add<ConstantBlock>("u", 1.0);
  auto& integ = m.add<blocks::DiscreteIntegratorBlock>("i", 1.0);
  integ.set_sample_time(SampleTime::discrete(0.001));
  auto& scope = m.add<ScopeBlock>("s");
  m.connect(c, 0, integ, 0);
  m.connect(integ, 0, scope, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.run();
  EXPECT_NEAR(scope.log().last_value(), 1.0, 1e-3 + 1e-9);
}

TEST(Engine, Rk4IntegratesExponentialDecayAccurately) {
  // x' = -x, x(0) = 1 -> x(1) = e^-1.
  Model m("exp");
  auto& integ = m.add<IntegratorBlock>("x", 1.0);
  auto& g = m.add<GainBlock>("neg", -1.0);
  m.connect(integ, 0, g, 0);
  m.connect(g, 0, integ, 0);
  g.set_sample_time(SampleTime::continuous());
  Engine eng(m, {.stop_time = 1.0, .minor_steps = 4});
  eng.run();
  SimContext ctx{1.0, 1e-3, false};
  integ.output(ctx);
  EXPECT_NEAR(integ.out(0).as_double(), std::exp(-1.0), 1e-9);
}

TEST(Engine, InheritancePropagatesContinuity) {
  Model m("inh");
  auto& integ = m.add<IntegratorBlock>("x", 1.0);
  auto& g = m.add<GainBlock>("g", -1.0);  // inherited: fed by continuous
  m.connect(integ, 0, g, 0);
  m.connect(g, 0, integ, 0);
  Engine eng(m, {.stop_time = 0.5});
  eng.initialize();
  EXPECT_TRUE(g.resolved_continuous());
  // A detached source stays discrete.
  auto& c = m.add<ConstantBlock>("c", 0.0);
  Engine eng2(m, {.stop_time = 0.5});
  eng2.initialize();
  EXPECT_FALSE(c.resolved_continuous());
}

TEST(Engine, SecondOrderOscillatorConservesFrequency) {
  // x'' = -w^2 x -> x(t) = cos(w t); check the value after one full period.
  Model m("osc");
  const double w = 2.0 * 3.14159265358979;  // 1 Hz
  auto& v = m.add<IntegratorBlock>("v", 0.0);
  auto& x = m.add<IntegratorBlock>("x", 1.0);
  auto& g = m.add<GainBlock>("w2", -w * w);
  m.connect(x, 0, g, 0);
  m.connect(g, 0, v, 0);
  m.connect(v, 0, x, 0);
  Engine eng(m, {.stop_time = 1.0, .base_period = 1e-3, .minor_steps = 2});
  eng.run();
  SimContext ctx{1.0, 1e-3, false};
  x.output(ctx);
  EXPECT_NEAR(x.out(0).as_double(), 1.0, 1e-5);
}

TEST(Engine, MultirateHitsSlowBlocksLessOften) {
  Model m("mr");
  auto& c = m.add<ConstantBlock>("c", 1.0);
  auto& fast = m.add<ScopeBlock>("fast");
  auto& slow = m.add<ScopeBlock>("slow");
  fast.set_sample_time(SampleTime::discrete(0.001));
  slow.set_sample_time(SampleTime::discrete(0.005));
  m.connect(c, 0, fast, 0);
  m.connect(c, 0, slow, 0);
  Engine eng(m, {.stop_time = 0.1});
  eng.run();
  EXPECT_EQ(fast.log().size(), 100u);
  EXPECT_EQ(slow.log().size(), 20u);
}

TEST(Engine, SampleOffsetDelaysFirstHit) {
  Model m("off");
  auto& c = m.add<ConstantBlock>("c", 1.0);
  auto& scope = m.add<ScopeBlock>("s");
  scope.set_sample_time(SampleTime::discrete(0.002, 0.001));
  m.connect(c, 0, scope, 0);
  Engine eng(m, {.stop_time = 0.01});
  eng.run();
  ASSERT_FALSE(scope.log().empty());
  EXPECT_DOUBLE_EQ(scope.log().time_at(0), 0.001);
  EXPECT_EQ(scope.log().size(), 5u);  // 1,3,5,7,9 ms
}

TEST(Engine, IncompatibleRateRejected) {
  Model m("bad");
  auto& c = m.add<ConstantBlock>("c", 1.0);
  auto& scope = m.add<ScopeBlock>("s");
  scope.set_sample_time(SampleTime::discrete(0.0015));
  m.connect(c, 0, scope, 0);
  Engine eng(m, {.stop_time = 0.1, .base_period = 1e-3});
  EXPECT_THROW(eng.initialize(), std::logic_error);
}

TEST(Engine, AdvanceToStepsExactly) {
  Model m("adv");
  m.add<ConstantBlock>("c", 1.0);
  Engine eng(m, {.stop_time = 1.0});
  eng.initialize();
  eng.advance_to(0.05);
  EXPECT_NEAR(eng.time(), 0.05, 1e-12);
  eng.advance_to(0.05);  // idempotent
  EXPECT_NEAR(eng.time(), 0.05, 1e-12);
}

TEST(Engine, RejectsNanStopTime) {
  Model m("nan");
  m.add<ConstantBlock>("c", 1.0);
  EXPECT_THROW(Engine(m, {.stop_time = std::nan("")}), std::invalid_argument);
}

TEST(Engine, RejectsBadBasePeriod) {
  Model m("bp");
  m.add<ConstantBlock>("c", 1.0);
  for (const double bad : {-1e-3, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW(Engine(m, {.stop_time = 0.01, .base_period = bad}),
                 std::invalid_argument)
        << bad;
  }
  // 0 still means "derive it".
  Engine eng(m, {.stop_time = 0.01, .base_period = 0.0});
  eng.run();
  EXPECT_DOUBLE_EQ(eng.base_period(), 1e-3);
}

TEST(Engine, RunRefusesInfiniteStopTime) {
  Model m("inf");
  m.add<ConstantBlock>("c", 1.0);
  Engine eng(m, {.stop_time = HUGE_VAL});
  EXPECT_THROW(eng.run(), std::logic_error);
  eng.advance_to(0.01);  // stepping to a finite time stays legal
  EXPECT_EQ(eng.major_steps(), 10u);
}

TEST(Engine, StagesSkipContinuousBlocksOutsideTheDerivativeCone) {
  // x' = 1; a continuous block on x that feeds only a scope reaches no
  // state holder, so only the major pass runs it.
  Model m("cone");
  auto& u = m.add<ConstantBlock>("u", 1.0);
  auto& x = m.add<IntegratorBlock>("x", 0.0);
  int calls = 0;
  auto& probe = m.add<blocks::FunctionBlock>(
      "probe", 1, [&calls](const std::vector<double>& in, double) {
        ++calls;
        return 2.0 * in[0];
      });
  auto& scope = m.add<ScopeBlock>("s");
  m.connect(u, 0, x, 0);
  m.connect(x, 0, probe, 0);
  m.connect(probe, 0, scope, 0);
  Engine eng(m, {.stop_time = 0.01, .minor_steps = 3});
  eng.run();
  EXPECT_TRUE(probe.resolved_continuous());
  EXPECT_EQ(calls, 10);
  // Left after step() at its major-time output: 2 * x(9 ms).
  EXPECT_NEAR(probe.out(0).as_double(), 2.0 * 0.009, 1e-12);
  EXPECT_NEAR(scope.log().last_value(), 2.0 * 0.009, 1e-12);
}

TEST(Engine, TimeVaryingSourceRunsInEveryStage) {
  // A continuous sine is no pure block, so every stage samples it: the
  // integral over a quarter period is 1/(2 pi).  A sine held over the
  // major step would be off by about h/2 = 5e-4.
  Model m("sine");
  auto& sine = m.add<blocks::SineBlock>("sin", 1.0, 1.0, 0.0, 0.0);
  sine.set_sample_time(SampleTime::continuous());
  auto& x = m.add<IntegratorBlock>("x", 0.0);
  m.connect(sine, 0, x, 0);
  Engine eng(m, {.stop_time = 0.25, .base_period = 1e-3});
  eng.run();
  x.output({0.25, 1e-3, false});
  EXPECT_NEAR(x.out(0).as_double(), 1.0 / (2.0 * std::numbers::pi), 1e-9);
}

TEST(Engine, ImpureBlockOnHeldInputsRunsInEveryStage) {
  // A function of t fed only by a discrete constant: every input is held,
  // but the predicate's false default keeps it in the stages, so x = t^2/2.
  Model m("clock");
  auto& c = m.add<ConstantBlock>("c", 0.0);
  auto& clock = m.add<blocks::FunctionBlock>(
      "clock", 1, [](const std::vector<double>&, double t) { return t; });
  clock.set_sample_time(SampleTime::continuous());
  auto& x = m.add<IntegratorBlock>("x", 0.0);
  m.connect(c, 0, clock, 0);
  m.connect(clock, 0, x, 0);
  Engine eng(m, {.stop_time = 0.5, .base_period = 1e-3});
  eng.run();
  EXPECT_FALSE(c.resolved_continuous());
  x.output({0.5, 1e-3, false});
  EXPECT_NEAR(x.out(0).as_double(), 0.5 * 0.5 * 0.5, 1e-12);
}

// Counts output() calls of a block type; the predicate is the base's.
template <typename Base>
struct Counting : Base {
  using Base::Base;
  void output(const SimContext& ctx) override {
    ++calls;
    Base::output(ctx);
  }
  int calls = 0;
};

TEST(Engine, ServoShapedPlantRunsOnlyItsStateHolderPerStage) {
  // The servo's shape: a discrete controller drives a continuous plant
  // subsystem duty_in -> drive -> motor -> {angle_out, speed_out}.  The
  // Inport and the gain read the held duty, so each runs in the major pass
  // and once hoisted; the Outports reach no state holder.
  Model top("top");
  auto& duty = top.add<ConstantBlock>("duty", 0.5);
  duty.set_sample_time(SampleTime::discrete(1e-3));
  auto& plant = top.add<Subsystem>("plant", 1, 2);
  plant.set_sample_time(SampleTime::continuous());
  plant.set_direct_feedthrough(false);
  Model& p = plant.inner();
  auto& duty_in = p.add<Counting<Inport>>("duty_in");
  auto& drive = p.add<Counting<GainBlock>>("drive", 12.0);
  auto& motor = p.add<Counting<IntegratorBlock>>("motor", 0.0);
  auto& angle_out = p.add<Counting<Outport>>("angle_out");
  auto& speed_out = p.add<Counting<Outport>>("speed_out");
  p.connect(duty_in, 0, drive, 0);
  p.connect(drive, 0, motor, 0);
  p.connect(motor, 0, angle_out, 0);
  p.connect(motor, 0, speed_out, 0);
  plant.bind_ports({&duty_in}, {&angle_out, &speed_out});
  top.connect(duty, 0, plant, 0);
  auto& scope = top.add<ScopeBlock>("s", 2);
  scope.set_sample_time(SampleTime::discrete(1e-3));
  top.connect(plant, 0, scope, 0);
  top.connect(plant, 1, scope, 1);

  constexpr int kSteps = 10;
  Engine eng(top, {.stop_time = kSteps * 1e-3, .minor_steps = 4});
  eng.run();
  EXPECT_EQ(duty_in.calls, 2 * kSteps);
  EXPECT_EQ(drive.calls, 2 * kSteps);
  EXPECT_EQ(motor.calls, (1 + 4 * 4) * kSteps);
  EXPECT_EQ(angle_out.calls, kSteps);
  EXPECT_EQ(speed_out.calls, kSteps);
  // x' = 6 integrates exactly; the scope saw x at the last major time.
  EXPECT_NEAR(scope.log(1).last_value(), 6.0 * (kSteps - 1) * 1e-3, 1e-12);
}

TEST(Engine, DerivativeConeCrossesSubsystemBoundaries) {
  // x' = -x with the gain inside a continuous subsystem: the walk from x
  // reaches the gain through the subsystem's Outport and its Inport, so
  // the gain runs in every stage and x(1) = e^-1.
  Model m("wrapped_decay");
  auto& x = m.add<IntegratorBlock>("x", 1.0);
  auto& sub = m.add<Subsystem>("neg", 1, 1);
  sub.set_sample_time(SampleTime::continuous());
  auto& in = sub.inner().add<Inport>("in");
  auto& g = sub.inner().add<GainBlock>("g", -1.0);
  auto& out = sub.inner().add<Outport>("out");
  sub.inner().connect(in, 0, g, 0);
  sub.inner().connect(g, 0, out, 0);
  sub.bind_ports({&in}, {&out});
  m.connect(x, 0, sub, 0);
  m.connect(sub, 0, x, 0);
  Engine eng(m, {.stop_time = 1.0, .minor_steps = 4});
  eng.run();
  x.output({1.0, 1e-3, false});
  EXPECT_NEAR(x.out(0).as_double(), std::exp(-1.0), 1e-9);
}

TEST(Engine, StageProgramFollowsAGraphEditMidRun) {
  // x' = 1 for 5 ms, then the continuous gain on x, which fed only a scope,
  // replaces the source: the rebuild brings it into the derivative cone,
  // so x' = -x is integrated stage by stage from there on.
  Model m("edit");
  auto& u = m.add<ConstantBlock>("u", 1.0);
  auto& x = m.add<IntegratorBlock>("x", 0.0);
  auto& g = m.add<GainBlock>("g", -1.0);
  auto& scope = m.add<ScopeBlock>("s");
  m.connect(u, 0, x, 0);
  m.connect(x, 0, g, 0);
  m.connect(g, 0, scope, 0);
  Engine eng(m, {.stop_time = 0.01});
  eng.advance_to(0.005);
  m.connect(g, 0, x, 0);
  eng.run();
  x.output({0.01, 1e-3, false});
  EXPECT_NEAR(x.out(0).as_double(), 0.005 * std::exp(-0.005), 1e-12);
}

// --------------------------------------------------------------- Subsystems

TEST(Subsystem, ClosedLoopThroughSubsystem) {
  // Controller subsystem: out = 2 * in.
  Model m("top");
  auto& sub = m.add<Subsystem>("ctrl", 1, 1);
  auto& inp = sub.inner().add<Inport>("in");
  auto& gain = sub.inner().add<GainBlock>("g", 2.0);
  auto& outp = sub.inner().add<Outport>("out");
  sub.inner().connect(inp, 0, gain, 0);
  sub.inner().connect(gain, 0, outp, 0);
  sub.bind_ports({&inp}, {&outp});

  auto& c = m.add<ConstantBlock>("c", 5.0);
  auto& scope = m.add<ScopeBlock>("s");
  m.connect(c, 0, sub, 0);
  m.connect(sub, 0, scope, 0);
  Engine eng(m, {.stop_time = 0.01});
  eng.run();
  EXPECT_DOUBLE_EQ(scope.log().last_value(), 10.0);
}

TEST(Subsystem, InnerDiscreteStateUpdates) {
  Model m("top");
  auto& sub = m.add<Subsystem>("sys", 1, 1);
  auto& inp = sub.inner().add<Inport>("in");
  auto& delay = sub.inner().add<UnitDelayBlock>("z", 0.0);
  auto& outp = sub.inner().add<Outport>("out");
  sub.inner().connect(inp, 0, delay, 0);
  sub.inner().connect(delay, 0, outp, 0);
  sub.bind_ports({&inp}, {&outp});
  auto& step = m.add<StepBlock>("u", 0.0, 0.0, 1.0);
  auto& scope = m.add<ScopeBlock>("s");
  m.connect(step, 0, sub, 0);
  m.connect(sub, 0, scope, 0);
  Engine eng(m, {.stop_time = 0.005});
  eng.run();
  // First sample sees the delay's initial 0, later ones the delayed step.
  EXPECT_DOUBLE_EQ(scope.log().value_at(0), 0.0);
  EXPECT_DOUBLE_EQ(scope.log().value_at(1), 1.0);
}

TEST(Subsystem, ContinuousPlantInsideSubsystem) {
  // Plant subsystem integrating its input: y = t for u = 1.
  Model m("top");
  auto& sub = m.add<Subsystem>("plant", 1, 1);
  auto& inp = sub.inner().add<Inport>("u");
  auto& integ = sub.inner().add<IntegratorBlock>("x", 0.0);
  auto& outp = sub.inner().add<Outport>("y");
  sub.inner().connect(inp, 0, integ, 0);
  sub.inner().connect(integ, 0, outp, 0);
  sub.bind_ports({&inp}, {&outp});
  sub.set_sample_time(SampleTime::continuous());
  auto& c = m.add<ConstantBlock>("c", 1.0);
  m.connect(c, 0, sub, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.run();
  SimContext ctx{1.0, 1e-3, false};
  sub.output(ctx);
  EXPECT_NEAR(sub.out(0).as_double(), 1.0, 1e-9);
}

// ------------------------------------------------- Hierarchy transparency

// One closed loop built three ways: flat, wrapped in one subsystem, and
// nested two deep.  A discrete P controller (fixed-point output) feeds a
// hold slower than its subsystem (3 ms, offset 1 ms), which drives a
// continuous first-order plant.  The flat program must make the shapes
// indistinguishable.
enum class Shape { kFlat, kWrapped, kNested };

constexpr double kTs = 1e-3;

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

struct LoopBlocks {
  Block* err = nullptr;
  Block* ctl = nullptr;
  Block* hold = nullptr;
  Block* pin = nullptr;
  Block* x = nullptr;
};

// Controller-side leaves go into \p c, plant-side leaves into \p p.
LoopBlocks add_loop(Model& c, Model& p) {
  const auto fmt = fixpt::FixedFormat::s16(10);
  LoopBlocks l;
  l.err = &c.add<SumBlock>("err", "+-");
  l.err->set_sample_time(SampleTime::discrete(kTs));
  l.ctl = &c.add<GainBlock>("ctl", 4.0);
  l.ctl->set_sample_time(SampleTime::discrete(kTs));
  l.ctl->set_output_type(0, DataType::kFixed, fmt);
  l.hold = &c.add<UnitDelayBlock>("hold", 0.0);
  l.hold->set_sample_time(SampleTime::discrete(3 * kTs, kTs));
  l.hold->set_output_type(0, DataType::kFixed, fmt);
  l.pin = &p.add<SumBlock>("pin", "+-");
  l.pin->set_sample_time(SampleTime::continuous());
  l.x = &p.add<IntegratorBlock>("x", 0.0);
  c.connect(*l.err, 0, *l.ctl, 0);
  c.connect(*l.ctl, 0, *l.hold, 0);
  p.connect(*l.pin, 0, *l.x, 0);
  p.connect(*l.x, 0, *l.pin, 1);
  return l;
}

// Adds an Outport named \p name fed by \p src to \p m.
Outport& expose(Model& m, const std::string& name, Block& src) {
  auto& out = m.add<Outport>(name);
  m.connect(src, 0, out, 0);
  return out;
}

// Builds the loop in \p top; returns the scope logging y, ctl and hold.
ScopeBlock& build_loop(Model& top, Shape shape) {
  const auto fmt = fixpt::FixedFormat::s16(10);
  auto& u = top.add<StepBlock>("u", 0.0035, 0.0, 1.0);
  u.set_sample_time(SampleTime::discrete(kTs));
  auto& scope = top.add<ScopeBlock>("scope", 3);
  scope.set_sample_time(SampleTime::discrete(kTs));
  if (shape == Shape::kFlat) {
    const LoopBlocks l = add_loop(top, top);
    top.connect(u, 0, *l.err, 0);
    top.connect(*l.x, 0, *l.err, 1);
    top.connect(*l.hold, 0, *l.pin, 0);
    top.connect(*l.x, 0, scope, 0);
    top.connect(*l.ctl, 0, scope, 1);
    top.connect(*l.hold, 0, scope, 2);
    return scope;
  }
  // The controller side lives in `sys`: one continuous subsystem holding
  // everything, or a 1 ms subsystem holding a continuous plant subsystem.
  auto& sys = top.add<Subsystem>("sys", 1, 3);
  Model& c = sys.inner();
  auto& u_in = c.add<Inport>("u_in");
  LoopBlocks l;
  Block* y = nullptr;
  if (shape == Shape::kWrapped) {
    sys.set_sample_time(SampleTime::continuous());
    l = add_loop(c, c);
    c.connect(*l.hold, 0, *l.pin, 0);
    y = l.x;
  } else {
    sys.set_sample_time(SampleTime::discrete(kTs));
    auto& plant = c.add<Subsystem>("plant", 1, 1);
    plant.set_sample_time(SampleTime::continuous());
    plant.set_direct_feedthrough(false);
    Model& p = plant.inner();
    auto& v = p.add<Inport>("v");
    v.set_output_type(0, DataType::kFixed, fmt);  // fixed-point boundary
    l = add_loop(c, p);
    p.connect(v, 0, *l.pin, 0);
    plant.bind_ports({&v}, {&expose(p, "y", *l.x)});
    c.connect(*l.hold, 0, plant, 0);
    y = &plant;
  }
  c.connect(u_in, 0, *l.err, 0);
  c.connect(*y, 0, *l.err, 1);
  sys.bind_ports({&u_in}, {&expose(c, "y_out", *y),
                           &expose(c, "ctl_out", *l.ctl),
                           &expose(c, "hold_out", *l.hold)});
  sys.set_output_type(1, DataType::kFixed, fmt);  // fixed-point boundary
  sys.set_output_type(2, DataType::kFixed, fmt);
  top.connect(u, 0, sys, 0);
  for (int i = 0; i < 3; ++i) top.connect(sys, i, scope, i);
  return scope;
}

void expect_same_bits(const SampleLog& a, const SampleLog& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits_of(a.time_at(i)) != bits_of(b.time_at(i)) ||
        bits_of(a.value_at(i)) != bits_of(b.value_at(i))) {
      ADD_FAILURE() << what << " differs at sample " << i << ": ("
                    << a.time_at(i) << ", " << a.value_at(i) << ") vs ("
                    << b.time_at(i) << ", " << b.value_at(i) << ")";
      return;
    }
  }
}

TEST(Subsystem, HierarchyIsTransparentToTheFlatProgram) {
  Model flat("flat"), wrapped("wrapped"), nested("nested");
  ScopeBlock& ref = build_loop(flat, Shape::kFlat);
  ScopeBlock& one = build_loop(wrapped, Shape::kWrapped);
  ScopeBlock& two = build_loop(nested, Shape::kNested);
  for (Model* m : {&flat, &wrapped, &nested}) {
    Engine eng(*m, {.stop_time = 0.08});
    eng.run();
  }
  const char* channels[] = {"y", "ctl", "hold"};
  for (int ch = 0; ch < 3; ++ch) {
    expect_same_bits(ref.log(ch), one.log(ch),
                     std::string("wrapped ") + channels[ch]);
    expect_same_bits(ref.log(ch), two.log(ch),
                     std::string("nested ") + channels[ch]);
  }
  // The loop really moves, and the hold really runs at its own 3 ms rate
  // with its 1 ms offset: its value changes only at t = 1 ms + 3k ms.
  EXPECT_GT(ref.log(0).last_value(), 0.1);
  const SampleLog& hold = two.log(2);
  for (std::size_t i = 1; i < hold.size(); ++i) {
    if (hold.value_at(i) != hold.value_at(i - 1)) {
      EXPECT_EQ((i + 2) % 3, 0u) << "hold changed at sample " << i;
    }
  }
  EXPECT_NE(hold.last_value(), 0.0);
}

TEST(FunctionCallSubsystem, RunsOnlyWhenTriggered) {
  Model m("top");
  auto& fcall = m.add<FunctionCallSubsystem>("isr", 0, 1);
  auto& cnt = fcall.inner().add<blocks::DiscreteIntegratorBlock>("n", 1.0);
  auto& one = fcall.inner().add<ConstantBlock>("one", 1.0);
  auto& outp = fcall.inner().add<Outport>("out");
  fcall.inner().connect(one, 0, cnt, 0);
  fcall.inner().connect(cnt, 0, outp, 0);
  fcall.bind_ports({}, {&outp});
  Engine eng(m, {.stop_time = 0.01});
  eng.initialize();
  eng.run();
  EXPECT_EQ(fcall.activations(), 0u);  // never triggered
  SimContext ctx{0.01, 1e-3, false};
  fcall.trigger(ctx);
  fcall.trigger(ctx);
  EXPECT_EQ(fcall.activations(), 2u);
}

TEST(FunctionCallSubsystem, TriggerRunsNestedAtomicSubsystems) {
  // isr: one -> nested(accumulator) -> out.  The flat program never
  // splices a triggered unit, so the nested interior runs from trigger().
  Model m("top");
  auto& fcall = m.add<FunctionCallSubsystem>("isr", 0, 1);
  Model& f = fcall.inner();
  auto& nested = f.add<Subsystem>("nested", 1, 1);
  auto& n_in = nested.inner().add<Inport>("in");
  auto& acc = nested.inner().add<blocks::DiscreteIntegratorBlock>("acc", 1.0);
  auto& n_out = expose(nested.inner(), "out", acc);
  nested.inner().connect(n_in, 0, acc, 0);
  nested.bind_ports({&n_in}, {&n_out});
  auto& one = f.add<ConstantBlock>("one", 1.0);
  f.connect(one, 0, nested, 0);
  fcall.bind_ports({}, {&expose(f, "out", nested)});
  Engine eng(m, {.stop_time = 0.01});
  eng.initialize();
  const SimContext ctx{0.0, 1e-3, false};
  fcall.trigger(ctx);
  fcall.trigger(ctx);
  const double after_one_update = fcall.out(0).as_double();
  fcall.trigger(ctx);
  EXPECT_GT(after_one_update, 0.0);
  EXPECT_DOUBLE_EQ(fcall.out(0).as_double(), 2.0 * after_one_update);
}

TEST(EventSource, FiresAttachedSubsystemsAndListeners) {
  Model m("top");
  auto& fcall = m.add<FunctionCallSubsystem>("isr", 0, 0);
  fcall.bind_ports({}, {});
  EventSource evt;
  evt.attach(fcall);
  int listener_hits = 0;
  evt.attach([&](const SimContext&) { ++listener_hits; });
  evt.fire(SimContext{0.0, 1e-3, false});
  EXPECT_EQ(fcall.activations(), 1u);
  EXPECT_EQ(listener_hits, 1);
}

// -------------------------------------------------------------- State chart

TEST(StateChart, ModeSwitchingWithGuards) {
  Model m("chart_host");
  auto& chart = m.add<StateChart>("modes", 1, 1);
  chart.add_state(
      "manual",
      /*entry=*/[](const StateChart::ChartContext& c) { c.set_out(0, 0.0); });
  chart.add_state(
      "automatic",
      [](const StateChart::ChartContext& c) { c.set_out(0, 1.0); });
  chart.add_transition("manual", "automatic",
                       [](const StateChart::ChartContext& c) {
                         return c.in(0) > 0.5;
                       });
  chart.add_transition("automatic", "manual",
                       [](const StateChart::ChartContext& c) {
                         return c.in(0) < 0.5;
                       });
  auto& sw = m.add<StepBlock>("u", 0.005, 0.0, 1.0);
  m.connect(sw, 0, chart, 0);
  auto& scope = m.add<ScopeBlock>("s");
  m.connect(chart, 0, scope, 0);
  Engine eng(m, {.stop_time = 0.01});
  eng.run();
  EXPECT_EQ(chart.active_state(), "automatic");
  EXPECT_DOUBLE_EQ(scope.log().value_at(0), 0.0);
  EXPECT_DOUBLE_EQ(scope.log().last_value(), 1.0);
  EXPECT_EQ(chart.transitions_taken(), 1u);
}

TEST(StateChart, AsynchronousEventChangesStateImmediately) {
  Model m("h");
  auto& chart = m.add<StateChart>("c", 0, 0);
  chart.add_state("idle");
  chart.add_state("fault");
  chart.add_transition("idle", "fault", nullptr, nullptr, "overcurrent");
  chart.initialize(SimContext{});
  EXPECT_EQ(chart.active_state(), "idle");
  chart.send_event("wrong_event", SimContext{});
  EXPECT_EQ(chart.active_state(), "idle");
  chart.send_event("overcurrent", SimContext{});
  EXPECT_EQ(chart.active_state(), "fault");
}

TEST(StateChart, EntryExitActionsRunInOrder) {
  Model m("h");
  auto& chart = m.add<StateChart>("c", 0, 0);
  std::vector<std::string> trace;
  chart.add_state(
      "a", [&](const StateChart::ChartContext&) { trace.push_back("a.entry"); },
      nullptr,
      [&](const StateChart::ChartContext&) { trace.push_back("a.exit"); });
  chart.add_state("b", [&](const StateChart::ChartContext&) {
    trace.push_back("b.entry");
  });
  chart.add_transition("a", "b", nullptr, [&](const StateChart::ChartContext&) {
    trace.push_back("action");
  });
  chart.initialize(SimContext{});
  chart.output(SimContext{});
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0], "a.entry");
  EXPECT_EQ(trace[1], "action");
  EXPECT_EQ(trace[2], "a.exit");
  EXPECT_EQ(trace[3], "b.entry");
}

// ------------------------------------------------------------------ Metrics

TEST(Metrics, StepMetricsOnSyntheticFirstOrderResponse) {
  // y(t) = 1 - e^(-t/tau), tau = 0.1: rise 10->90% = tau*ln(9) ~ 0.2197 s.
  SampleLog log;
  const double tau = 0.1;
  for (int i = 0; i <= 2000; ++i) {
    const double t = i * 1e-3;
    log.record(t, 1.0 - std::exp(-t / tau));
  }
  const StepMetrics m = analyze_step(log, 1.0);
  EXPECT_NEAR(m.rise_time, tau * std::log(9.0), 2e-3);
  EXPECT_NEAR(m.overshoot_percent, 0.0, 0.1);
  EXPECT_TRUE(m.settled);
  EXPECT_NEAR(m.settling_time, tau * std::log(1.0 / 0.02), 5e-3);
  EXPECT_LT(m.steady_state_error, 1e-3);
}

TEST(Metrics, OvershootDetected) {
  SampleLog log;
  for (int i = 0; i <= 1000; ++i) {
    const double t = i * 1e-3;
    // Underdamped second-order-ish: overshoot to 1.3 then settle at 1.
    log.record(t, 1.0 - std::exp(-5 * t) * std::cos(20 * t) * 1.0 -
                       std::exp(-5 * t) * 0.25);
  }
  const StepMetrics m = analyze_step(log, 1.0);
  EXPECT_GT(m.overshoot_percent, 5.0);
}

TEST(Metrics, IaeOfConstantError) {
  SampleLog log;
  for (int i = 0; i <= 100; ++i) log.record(i * 0.01, 0.5);
  EXPECT_NEAR(integral_absolute_error(log, 1.0), 0.5 * 1.0, 1e-9);
  EXPECT_NEAR(integral_squared_error(log, 1.0), 0.25, 1e-9);
  // ITAE of constant error over [0,1] = 0.5 * integral t dt = 0.25.
  EXPECT_NEAR(integral_time_absolute_error(log, 1.0), 0.25, 1e-6);
}

TEST(Metrics, IaeAgainstTimeVaryingReference) {
  SampleLog y;
  SampleLog r;
  for (int i = 0; i <= 100; ++i) {
    y.record(i * 0.01, 1.0);
    r.record(i * 0.01, 2.0);
  }
  EXPECT_NEAR(integral_absolute_error(y, r), 1.0, 1e-9);
}

TEST(SampleLogBasics, ZohSamplingAndMonotonicity) {
  SampleLog log;
  log.record(0.0, 1.0);
  log.record(1.0, 2.0);
  EXPECT_DOUBLE_EQ(log.sample(0.5), 1.0);
  EXPECT_DOUBLE_EQ(log.sample(1.5), 2.0);
  EXPECT_DOUBLE_EQ(log.sample(-1.0), 1.0);
  EXPECT_THROW(log.record(0.5, 3.0), std::invalid_argument);
}

}  // namespace
}  // namespace iecd::model
