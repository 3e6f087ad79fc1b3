#include <gtest/gtest.h>

#include <cmath>

#include "blocks/continuous.hpp"
#include "blocks/custom.hpp"
#include "blocks/discontinuities.hpp"
#include "blocks/discrete.hpp"
#include "blocks/lookup.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/routing.hpp"
#include "blocks/sinks.hpp"
#include "blocks/sources.hpp"
#include "mcu/derivative.hpp"
#include "model/engine.hpp"
#include "model/metrics.hpp"
#include "model/model.hpp"

namespace iecd::blocks {
namespace {

using model::DataType;
using model::Engine;
using model::Model;
using model::SampleTime;
using model::SimContext;

/// Runs a tiny model feeding `input` through `block` and returns the scope
/// trace.  The block must be 1-in/1-out.
template <typename BlockT, typename... Args>
const model::SampleLog& run_siso(Model& m, double stop, double input,
                                 Args&&... args) {
  auto& c = m.add<ConstantBlock>("in", input);
  auto& b = m.add<BlockT>("dut", std::forward<Args>(args)...);
  auto& s = m.add<ScopeBlock>("scope");
  m.connect(c, 0, b, 0);
  m.connect(b, 0, s, 0);
  Engine eng(m, {.stop_time = stop});
  eng.run();
  return s.log();
}

TEST(Sources, StepSwitchesAtStepTime) {
  Model m("t");
  auto& step = m.add<StepBlock>("u", 0.005, -1.0, 1.0);
  auto& s = m.add<ScopeBlock>("s");
  m.connect(step, 0, s, 0);
  Engine eng(m, {.stop_time = 0.01});
  eng.run();
  EXPECT_DOUBLE_EQ(s.log().sample(0.004), -1.0);
  EXPECT_DOUBLE_EQ(s.log().sample(0.006), 1.0);
}

TEST(Sources, RampAndPulseShapes) {
  Model m("t");
  auto& ramp = m.add<RampBlock>("r", 2.0, 0.01);
  auto& pulse = m.add<PulseBlock>("p", 0.01, 0.3, 5.0);
  auto& s = m.add<ScopeBlock>("s", 2);
  m.connect(ramp, 0, s, 0);
  m.connect(pulse, 0, s, 1);
  Engine eng(m, {.stop_time = 0.1});
  eng.run();
  EXPECT_NEAR(s.log(0).sample(0.0605), 2.0 * 0.05, 1e-3);
  EXPECT_DOUBLE_EQ(s.log(1).sample(0.002), 5.0);   // within duty
  EXPECT_DOUBLE_EQ(s.log(1).sample(0.005), 0.0);   // past duty
}

TEST(Sources, SineFrequencyAndBias) {
  Model m("t");
  auto& sine = m.add<SineBlock>("s1", 2.0, 10.0, 0.0, 1.0);
  auto& s = m.add<ScopeBlock>("s");
  m.connect(sine, 0, s, 0);
  Engine eng(m, {.stop_time = 0.1, .base_period = 1e-4});
  eng.run();
  EXPECT_NEAR(s.log().max_value(), 3.0, 0.01);
  EXPECT_NEAR(s.log().min_value(), -1.0, 0.01);
  // Quarter period of 10 Hz = 25 ms: peak there.
  EXPECT_NEAR(s.log().sample(0.025), 3.0, 0.01);
}

TEST(Math, SumWithMixedSigns) {
  Model m("t");
  auto& a = m.add<ConstantBlock>("a", 10.0);
  auto& b = m.add<ConstantBlock>("b", 4.0);
  auto& c = m.add<ConstantBlock>("c", 1.0);
  auto& sum = m.add<SumBlock>("sum", "+-+");
  auto& s = m.add<ScopeBlock>("s");
  m.connect(a, 0, sum, 0);
  m.connect(b, 0, sum, 1);
  m.connect(c, 0, sum, 2);
  m.connect(sum, 0, s, 0);
  Engine eng(m, {.stop_time = 0.002});
  eng.run();
  EXPECT_DOUBLE_EQ(s.log().last_value(), 7.0);
}

TEST(Math, SumRejectsBadSigns) {
  Model m("t");
  EXPECT_THROW(m.add<SumBlock>("bad", "+*"), std::invalid_argument);
  EXPECT_THROW(m.add<SumBlock>("empty", ""), std::invalid_argument);
}

TEST(Math, ProductAbsMinMax) {
  Model m("t");
  auto& a = m.add<ConstantBlock>("a", -3.0);
  auto& b = m.add<ConstantBlock>("b", 4.0);
  auto& prod = m.add<ProductBlock>("p", 2);
  auto& abs = m.add<AbsBlock>("abs");
  auto& mx = m.add<MinMaxBlock>("max", true, 2);
  auto& s = m.add<ScopeBlock>("s", 3);
  m.connect(a, 0, prod, 0);
  m.connect(b, 0, prod, 1);
  m.connect(prod, 0, abs, 0);
  m.connect(a, 0, mx, 0);
  m.connect(b, 0, mx, 1);
  m.connect(prod, 0, s, 0);
  m.connect(abs, 0, s, 1);
  m.connect(mx, 0, s, 2);
  Engine eng(m, {.stop_time = 0.002});
  eng.run();
  EXPECT_DOUBLE_EQ(s.log(0).last_value(), -12.0);
  EXPECT_DOUBLE_EQ(s.log(1).last_value(), 12.0);
  EXPECT_DOUBLE_EQ(s.log(2).last_value(), 4.0);
}

TEST(Discontinuities, SaturationClamps) {
  Model m("t");
  const auto& log = run_siso<SaturationBlock>(m, 0.002, 9.0, -2.0, 2.0);
  EXPECT_DOUBLE_EQ(log.last_value(), 2.0);
}

TEST(Discontinuities, QuantizerSnapsToGrid) {
  Model m("t");
  const auto& log = run_siso<QuantizerBlock>(m, 0.002, 1.26, 0.5);
  EXPECT_DOUBLE_EQ(log.last_value(), 1.5);
}

TEST(Discontinuities, RelayHysteresis) {
  Model m("t");
  auto& sine = m.add<SineBlock>("u", 1.0, 10.0);
  auto& relay = m.add<RelayBlock>("r", 0.5, -0.5, 1.0, 0.0);
  auto& s = m.add<ScopeBlock>("s");
  m.connect(sine, 0, relay, 0);
  m.connect(relay, 0, s, 0);
  Engine eng(m, {.stop_time = 0.1, .base_period = 1e-4});
  eng.run();
  // At t=25 ms the sine peaks: relay on.  At 60 ms sine ~ -0.95: off.
  EXPECT_DOUBLE_EQ(s.log().sample(0.026), 1.0);
  EXPECT_DOUBLE_EQ(s.log().sample(0.065), 0.0);
  // Within the hysteresis band (sine near 0 going down) the state holds.
  EXPECT_DOUBLE_EQ(s.log().sample(0.051), 1.0);
}

TEST(Discontinuities, RateLimiterBoundsSlew) {
  Model m("t");
  auto& step = m.add<StepBlock>("u", 0.0, 0.0, 1.0);
  auto& rl = m.add<RateLimiterBlock>("rl", 10.0, 10.0);  // 10 units/s
  rl.set_sample_time(SampleTime::discrete(0.001));
  auto& s = m.add<ScopeBlock>("s");
  m.connect(step, 0, rl, 0);
  m.connect(rl, 0, s, 0);
  Engine eng(m, {.stop_time = 0.2});
  eng.run();
  // Reaching 1.0 takes 0.1 s at 10/s.
  EXPECT_LT(s.log().sample(0.05), 0.52);
  EXPECT_NEAR(s.log().sample(0.15), 1.0, 1e-9);
}

TEST(Discontinuities, DeadZonePassesOutsideBand) {
  Model m("t");
  const auto& log = run_siso<DeadZoneBlock>(m, 0.002, 0.3, -0.5, 0.5);
  EXPECT_DOUBLE_EQ(log.last_value(), 0.0);
  Model m2("t2");
  const auto& log2 = run_siso<DeadZoneBlock>(m2, 0.002, 0.8, -0.5, 0.5);
  EXPECT_NEAR(log2.last_value(), 0.3, 1e-12);
}

TEST(Discrete, UnitDelayDelaysOneSample) {
  Model m("t");
  auto& step = m.add<StepBlock>("u", 0.0, 0.0, 1.0);
  auto& z = m.add<UnitDelayBlock>("z", -7.0);
  auto& s = m.add<ScopeBlock>("s");
  m.connect(step, 0, z, 0);
  m.connect(z, 0, s, 0);
  Engine eng(m, {.stop_time = 0.003});
  eng.run();
  EXPECT_DOUBLE_EQ(s.log().value_at(0), -7.0);  // initial value
  EXPECT_DOUBLE_EQ(s.log().value_at(1), 1.0);
}

TEST(Discrete, IntegratorMethodsConverge) {
  for (const auto method :
       {IntegrationMethod::kForwardEuler, IntegrationMethod::kBackwardEuler,
        IntegrationMethod::kTrapezoidal}) {
    Model m("t");
    auto& c = m.add<ConstantBlock>("u", 2.0);
    auto& i = m.add<DiscreteIntegratorBlock>("i", 1.0, method);
    i.set_sample_time(SampleTime::discrete(0.001));
    auto& s = m.add<ScopeBlock>("s");
    m.connect(c, 0, i, 0);
    m.connect(i, 0, s, 0);
    Engine eng(m, {.stop_time = 0.5});
    eng.run();
    EXPECT_NEAR(s.log().last_value(), 2.0 * 0.5, 0.01)
        << "method " << static_cast<int>(method);
  }
}

TEST(Discrete, IntegratorLimitsClampWindup) {
  Model m("t");
  auto& c = m.add<ConstantBlock>("u", 100.0);
  auto& i = m.add<DiscreteIntegratorBlock>("i", 1.0);
  i.set_limits(-1.0, 1.0);
  i.set_sample_time(SampleTime::discrete(0.001));
  auto& s = m.add<ScopeBlock>("s");
  m.connect(c, 0, i, 0);
  m.connect(i, 0, s, 0);
  Engine eng(m, {.stop_time = 0.1});
  eng.run();
  EXPECT_DOUBLE_EQ(s.log().last_value(), 1.0);
  EXPECT_DOUBLE_EQ(s.log().max_value(), 1.0);
}

TEST(Discrete, DerivativeOfRampIsSlope) {
  Model m("t");
  auto& ramp = m.add<RampBlock>("u", 3.0);
  auto& d = m.add<DiscreteDerivativeBlock>("d", 1.0);
  d.set_sample_time(SampleTime::discrete(0.001));
  auto& s = m.add<ScopeBlock>("s");
  m.connect(ramp, 0, d, 0);
  m.connect(d, 0, s, 0);
  Engine eng(m, {.stop_time = 0.05});
  eng.run();
  EXPECT_NEAR(s.log().last_value(), 3.0, 1e-9);
}

TEST(Discrete, TransferFnFirstOrderLowpassDcGain) {
  // H(z) = 0.1 / (1 - 0.9 z^-1): DC gain = 1.
  Model m("t");
  auto& c = m.add<ConstantBlock>("u", 2.0);
  auto& h = m.add<DiscreteTransferFnBlock>("h", std::vector<double>{0.1},
                                           std::vector<double>{1.0, -0.9});
  h.set_sample_time(SampleTime::discrete(0.001));
  auto& s = m.add<ScopeBlock>("s");
  m.connect(c, 0, h, 0);
  m.connect(h, 0, s, 0);
  Engine eng(m, {.stop_time = 0.2});
  eng.run();
  EXPECT_NEAR(s.log().last_value(), 2.0, 1e-3);
}

TEST(Discrete, TransferFnRejectsImproper) {
  Model m("t");
  EXPECT_THROW(m.add<DiscreteTransferFnBlock>(
                   "bad", std::vector<double>{1.0, 2.0, 3.0},
                   std::vector<double>{1.0, 0.5}),
               std::invalid_argument);
}

TEST(Discrete, PidDrivesFirstOrderPlantToSetpoint) {
  // Closed loop: PID -> plant 1/(s+1) (discretized via engine continuous).
  Model m("t");
  auto& ref = m.add<StepBlock>("ref", 0.0, 0.0, 1.0);
  auto& err = m.add<SumBlock>("err", "+-");
  DiscretePidBlock::Gains g;
  g.kp = 4.0;
  g.ki = 6.0;
  g.kd = 0.0;
  auto& pid = m.add<DiscretePidBlock>("pid", g, -10.0, 10.0);
  pid.set_sample_time(SampleTime::discrete(0.001));
  auto& plant = m.add<TransferFunctionBlock>(
      "plant", std::vector<double>{1.0}, std::vector<double>{1.0, 1.0});
  auto& s = m.add<ScopeBlock>("s");
  m.connect(ref, 0, err, 0);
  m.connect(plant, 0, err, 1);
  m.connect(err, 0, pid, 0);
  m.connect(pid, 0, plant, 0);
  m.connect(plant, 0, s, 0);
  Engine eng(m, {.stop_time = 3.0});
  eng.run();
  const auto metrics = model::analyze_step(s.log(), 1.0);
  EXPECT_TRUE(metrics.settled);
  EXPECT_LT(metrics.steady_state_error, 0.01);
}

TEST(Discrete, PidAntiWindupRecoversFast) {
  // Saturated PID against an unreachable setpoint, then a reachable one:
  // without anti-windup the integrator would need long to unwind.
  Model m("t");
  DiscretePidBlock::Gains g;
  g.kp = 1.0;
  g.ki = 50.0;
  auto& pid = m.add<DiscretePidBlock>("pid", g, -1.0, 1.0);
  pid.set_sample_time(SampleTime::discrete(0.001));
  auto& err = m.add<StepBlock>("e", 0.5, 10.0, -0.1);
  auto& s = m.add<ScopeBlock>("s");
  m.connect(err, 0, pid, 0);
  m.connect(pid, 0, s, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.run();
  // Output must leave the positive rail shortly after the error flips.
  EXPECT_LT(s.log().sample(0.6), 0.9);
}

TEST(Discrete, MovingAverageDividesBySamplesSeenUntilFull) {
  MovingAverage avg(3);
  EXPECT_EQ(avg.output(6.0), 6.0);
  avg.update(6.0);
  EXPECT_EQ(avg.output(3.0), 4.5);
  avg.update(3.0);
  EXPECT_EQ(avg.output(0.0), 3.0);
  avg.update(0.0);
  EXPECT_EQ(avg.output(9.0), 4.0);  // 6.0 has left the window
  avg.reset();
  EXPECT_EQ(avg.output(1.0), 1.0);
  EXPECT_THROW(MovingAverage{0}, std::invalid_argument);
}

TEST(Discrete, MovingAverageSmoothsToMean) {
  Model m("t");
  auto& c = m.add<ConstantBlock>("u", 5.0);
  auto& ma = m.add<MovingAverageBlock>("ma", 8);
  ma.set_sample_time(SampleTime::discrete(0.001));
  auto& s = m.add<ScopeBlock>("s");
  m.connect(c, 0, ma, 0);
  m.connect(ma, 0, s, 0);
  Engine eng(m, {.stop_time = 0.05});
  eng.run();
  EXPECT_NEAR(s.log().last_value(), 5.0, 1e-12);
}

TEST(Continuous, StateSpaceFirstOrder) {
  // x' = -2x + 2u, y = x: step response y(t) = 1 - e^(-2t).
  Model m("t");
  auto& c = m.add<ConstantBlock>("u", 1.0);
  auto& ss = m.add<StateSpaceBlock>(
      "ss", std::vector<std::vector<double>>{{-2.0}}, std::vector<double>{2.0},
      std::vector<double>{1.0}, 0.0);
  m.connect(c, 0, ss, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.run();
  SimContext ctx{1.0, 1e-3, false};
  ss.output(ctx);
  EXPECT_NEAR(ss.out(0).as_double(), 1.0 - std::exp(-2.0), 1e-6);
}

TEST(Continuous, TransferFunctionMatchesStateSpace) {
  // 1/(s^2 + 3s + 2): DC gain 0.5.
  Model m("t");
  auto& c = m.add<ConstantBlock>("u", 4.0);
  auto& tf = m.add<TransferFunctionBlock>(
      "tf", std::vector<double>{1.0}, std::vector<double>{1.0, 3.0, 2.0});
  m.connect(c, 0, tf, 0);
  Engine eng(m, {.stop_time = 15.0});
  eng.run();
  SimContext ctx{15.0, 1e-3, false};
  tf.output(ctx);
  EXPECT_NEAR(tf.out(0).as_double(), 2.0, 1e-4);
}

TEST(Routing, SwitchSelectsByThreshold) {
  Model m("t");
  auto& a = m.add<ConstantBlock>("a", 1.0);
  auto& b = m.add<ConstantBlock>("b", 2.0);
  auto& ctl = m.add<StepBlock>("ctl", 0.005, 0.0, 1.0);
  auto& sw = m.add<SwitchBlock>("sw", 0.5);
  auto& s = m.add<ScopeBlock>("s");
  m.connect(a, 0, sw, 0);
  m.connect(ctl, 0, sw, 1);
  m.connect(b, 0, sw, 2);
  m.connect(sw, 0, s, 0);
  Engine eng(m, {.stop_time = 0.01});
  eng.run();
  EXPECT_DOUBLE_EQ(s.log().sample(0.004), 2.0);
  EXPECT_DOUBLE_EQ(s.log().sample(0.006), 1.0);
}

TEST(Routing, ManualSwitchTogglesLive) {
  Model m("t");
  auto& a = m.add<ConstantBlock>("a", 1.0);
  auto& b = m.add<ConstantBlock>("b", 2.0);
  auto& sw = m.add<ManualSwitchBlock>("sw", true);
  auto& s = m.add<ScopeBlock>("s");
  m.connect(a, 0, sw, 0);
  m.connect(b, 0, sw, 1);
  m.connect(sw, 0, s, 0);
  Engine eng(m, {.stop_time = 0.01});
  eng.initialize();
  for (int i = 0; i < 5; ++i) eng.step();
  sw.set_position_a(false);
  while (eng.step()) {
  }
  EXPECT_DOUBLE_EQ(s.log().value_at(0), 1.0);
  EXPECT_DOUBLE_EQ(s.log().last_value(), 2.0);
}

TEST(Lookup, InterpolationAndClipping) {
  Model m("t");
  auto& lut = m.add<Lookup1DBlock>("lut", std::vector<double>{0.0, 1.0, 2.0},
                                   std::vector<double>{0.0, 10.0, 15.0});
  EXPECT_DOUBLE_EQ(lut.lookup(0.5), 5.0);
  EXPECT_DOUBLE_EQ(lut.lookup(1.5), 12.5);
  EXPECT_DOUBLE_EQ(lut.lookup(-3.0), 0.0);
  EXPECT_DOUBLE_EQ(lut.lookup(9.0), 15.0);
  EXPECT_THROW(m.add<Lookup1DBlock>("bad", std::vector<double>{1.0, 1.0},
                                    std::vector<double>{0.0, 1.0}),
               std::invalid_argument);
}

TEST(Custom, FunctionBlockWrapsCallable) {
  Model m("t");
  auto& a = m.add<ConstantBlock>("a", 3.0);
  auto& b = m.add<ConstantBlock>("b", 4.0);
  auto& hyp = m.add<FunctionBlock>(
      "hyp", 2, [](const std::vector<double>& u, double) {
        return std::sqrt(u[0] * u[0] + u[1] * u[1]);
      });
  auto& s = m.add<ScopeBlock>("s");
  m.connect(a, 0, hyp, 0);
  m.connect(b, 0, hyp, 1);
  m.connect(hyp, 0, s, 0);
  Engine eng(m, {.stop_time = 0.002});
  eng.run();
  EXPECT_DOUBLE_EQ(s.log().last_value(), 5.0);
}

TEST(FixedPointSignals, GainChainQuantizes) {
  // A gain with a 16-bit fixed output introduces bounded quantization error.
  Model m("t");
  auto& c = m.add<ConstantBlock>("u", 0.777);
  auto& g = m.add<GainBlock>("g", 1.0);
  const auto fmt = fixpt::FixedFormat::s16(10);
  g.set_output_type(0, DataType::kFixed, fmt);
  auto& s = m.add<ScopeBlock>("s");
  m.connect(c, 0, g, 0);
  m.connect(g, 0, s, 0);
  Engine eng(m, {.stop_time = 0.002});
  eng.run();
  EXPECT_NEAR(s.log().last_value(), 0.777, fmt.resolution() / 2 + 1e-12);
  EXPECT_NE(s.log().last_value(), 0.777);  // genuinely quantized
}

TEST(FixedPointSignals, SaturationAtFormatLimits) {
  Model m("t");
  auto& c = m.add<ConstantBlock>("u", 100.0);
  auto& g = m.add<GainBlock>("g", 1.0);
  g.set_output_type(0, DataType::kFixed, fixpt::FixedFormat::s16(12));
  auto& s = m.add<ScopeBlock>("s");
  m.connect(c, 0, g, 0);
  m.connect(g, 0, s, 0);
  Engine eng(m, {.stop_time = 0.002});
  eng.run();
  EXPECT_NEAR(s.log().last_value(), fixpt::FixedFormat::s16(12).max_value(),
              1e-9);
}

TEST(CostModel, BlockOpsPriceFixedCheaperThanFloatOnDsc) {
  const auto& dsc = mcu::find_derivative("DSC56F8367");
  DiscretePidBlock pid("pid", {}, -1.0, 1.0);
  const auto float_cycles = dsc.costs.cycles(pid.step_ops(false));
  const auto fixed_cycles = dsc.costs.cycles(pid.step_ops(true));
  EXPECT_GT(float_cycles, 10 * fixed_cycles);
}

TEST(Emission, BlocksEmitPlausibleC) {
  model::EmitContext ctx;
  ctx.inputs = {"rtb_u"};
  ctx.outputs = {"rtb_y"};
  ctx.state_prefix = "rtDW.g_";
  GainBlock g("g1", 2.5);
  EXPECT_NE(g.emit_c(ctx).find("2.5"), std::string::npos);
  ctx.fixed_point = true;
  EXPECT_NE(g.emit_c(ctx).find("sat16"), std::string::npos);
  SaturationBlock sat("sat", -1.0, 1.0);
  ctx.fixed_point = false;
  EXPECT_NE(sat.emit_c(ctx).find("rtb_u"), std::string::npos);
}

}  // namespace
}  // namespace iecd::blocks
