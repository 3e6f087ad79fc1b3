// Edge cases and error paths across module boundaries.
#include <gtest/gtest.h>

#include "beans/autosar.hpp"
#include "beans/timer_int_bean.hpp"
#include "blocks/discrete.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/sinks.hpp"
#include "blocks/sources.hpp"
#include "codegen/generator.hpp"
#include "core/model_sync.hpp"
#include "core/pe_blocks.hpp"
#include "model/engine.hpp"
#include "model/subsystem.hpp"

namespace iecd {
namespace {

TEST(SubsystemEdge, BindPortsMismatchRejected) {
  model::Model top("t");
  auto& sub = top.add<model::Subsystem>("s", 2, 1);
  auto& in0 = sub.inner().add<model::Inport>("in0");
  auto& out0 = sub.inner().add<model::Outport>("out0");
  EXPECT_THROW(sub.bind_ports({&in0}, {&out0}), std::invalid_argument);
}

TEST(SubsystemEdge, UnboundPortsCaughtAtInitialize) {
  model::Model top("t");
  [[maybe_unused]] auto& sub = top.add<model::Subsystem>("s", 1, 1);
  model::Engine eng(top, {.stop_time = 0.01});
  EXPECT_THROW(eng.initialize(), std::logic_error);
}

TEST(SubsystemEdge, TwoLevelNestingExecutes) {
  // outer(inner(gain*2)) * 3 == 6x.
  model::Model top("t");
  auto& outer = top.add<model::Subsystem>("outer", 1, 1);
  auto& o_in = outer.inner().add<model::Inport>("in");
  auto& o_out = outer.inner().add<model::Outport>("out");
  auto& o_gain = outer.inner().add<blocks::GainBlock>("g3", 3.0);
  auto& nested = outer.inner().add<model::Subsystem>("nested", 1, 1);
  auto& n_in = nested.inner().add<model::Inport>("in");
  auto& n_out = nested.inner().add<model::Outport>("out");
  auto& n_gain = nested.inner().add<blocks::GainBlock>("g2", 2.0);
  nested.inner().connect(n_in, 0, n_gain, 0);
  nested.inner().connect(n_gain, 0, n_out, 0);
  nested.bind_ports({&n_in}, {&n_out});
  outer.inner().connect(o_in, 0, nested, 0);
  outer.inner().connect(nested, 0, o_gain, 0);
  outer.inner().connect(o_gain, 0, o_out, 0);
  outer.bind_ports({&o_in}, {&o_out});

  auto& c = top.add<blocks::ConstantBlock>("c", 5.0);
  auto& scope = top.add<blocks::ScopeBlock>("scope");
  top.connect(c, 0, outer, 0);
  top.connect(outer, 0, scope, 0);
  model::Engine eng(top, {.stop_time = 0.015});
  eng.advance_to(0.005);
  EXPECT_DOUBLE_EQ(scope.log().last_value(), 30.0);

  // Editing an interior model mid-run rebuilds the program; removing g2
  // would leave a dangling entry in a stale one.
  ASSERT_TRUE(nested.inner().remove("g2"));
  auto& n_g5 = nested.inner().add<blocks::GainBlock>("g5", 5.0);
  nested.inner().connect(n_in, 0, n_g5, 0);
  nested.inner().connect(n_g5, 0, n_out, 0);
  eng.advance_to(0.01);
  EXPECT_DOUBLE_EQ(scope.log().last_value(), 75.0);
  // Removing the nested subsystem destroys a model the program spliced.
  ASSERT_TRUE(outer.inner().remove("nested"));
  outer.inner().connect(o_in, 0, o_gain, 0);
  eng.run();
  EXPECT_DOUBLE_EQ(scope.log().last_value(), 15.0);
}

TEST(EngineEdge, EmptyModelRuns) {
  model::Model m("empty");
  model::Engine eng(m, {.stop_time = 0.01});
  eng.run();
  EXPECT_NEAR(eng.time(), 0.01, 1e-12);
}

TEST(EngineEdge, ReinitializeResetsState) {
  model::Model m("t");
  auto& c = m.add<blocks::ConstantBlock>("c", 1.0);
  auto& i = m.add<blocks::DiscreteIntegratorBlock>("i", 1.0);
  i.set_sample_time(model::SampleTime::discrete(0.001));
  m.connect(c, 0, i, 0);
  model::Engine eng(m, {.stop_time = 0.1});
  eng.run();
  const double first = i.out(0).as_double();
  EXPECT_GT(first, 0.05);
  model::Engine eng2(m, {.stop_time = 0.1});
  eng2.initialize();
  EXPECT_DOUBLE_EQ(i.out(0).as_double(), 0.0);  // state reset
  eng2.run();
  EXPECT_DOUBLE_EQ(i.out(0).as_double(), first);  // and reproducible
}

TEST(GeneratorEdge, ControllerWithoutIoStillGenerates) {
  model::Model top("t");
  auto& sub = top.add<model::Subsystem>("ctrl", 0, 0);
  sub.set_sample_time(model::SampleTime::discrete(0.01));
  auto& c = sub.inner().add<blocks::ConstantBlock>("c", 1.0);
  auto& g = sub.inner().add<blocks::GainBlock>("g", 2.0);
  sub.inner().connect(c, 0, g, 0);
  sub.bind_ports({}, {});
  beans::BeanProject project("p");
  project.add<beans::TimerIntBean>("TI1");
  project.validate();
  codegen::Generator gen;
  auto app = gen.generate(sub, project, {});
  EXPECT_EQ(app.tasks.size(), 1u);
  EXPECT_TRUE(app.sources.count("model.c"));
}

TEST(GeneratorEdge, RemovedPeBlockDisappearsFromNextBuild) {
  model::Model top("t");
  auto& sub = top.add<model::Subsystem>("ctrl", 0, 0);
  sub.set_sample_time(model::SampleTime::discrete(0.001));
  beans::BeanProject project("p");
  core::ModelSync sync(sub.inner(), project);
  sync.add_timer_int("TI1");
  auto& pwm = sync.add_pwm("PWM1");
  auto& src = sub.inner().add<blocks::ConstantBlock>("c", 0.5);
  sub.inner().connect(src, 0, pwm, 0);
  sub.bind_ports({}, {});
  project.validate();
  codegen::Generator gen;
  auto app1 = gen.generate(sub, project, {});
  EXPECT_NE(app1.sources.at("model.c").find("PWM1_SetRatio16"),
            std::string::npos);
  // Erase the block from the model; the sync removes the bean too.
  ASSERT_TRUE(sync.remove_pe_block("PWM1"));
  project.validate();
  codegen::Generator gen2;
  auto app2 = gen2.generate(sub, project, {});
  EXPECT_EQ(app2.sources.at("model.c").find("PWM1_SetRatio16"),
            std::string::npos);
  EXPECT_FALSE(app2.sources.count("PWM1.h"));
}

TEST(GeneratorEdge, AutosarFixedPointCombination) {
  model::Model top("t");
  auto& sub = top.add<model::Subsystem>("ctrl", 0, 0);
  sub.set_sample_time(model::SampleTime::discrete(0.001));
  beans::BeanProject project("p");
  core::ModelSync sync(sub.inner(), project);
  sync.add_timer_int("TI1");
  auto& qd = sync.add_quad_dec("QD1");
  auto& pwm = sync.add_pwm("PWM1");
  auto& g = sub.inner().add<blocks::GainBlock>("g", 1e-4);
  sub.inner().connect(qd, 0, g, 0);
  sub.inner().connect(g, 0, pwm, 0);
  sub.bind_ports({}, {});
  project.validate();
  codegen::GeneratorOptions opts;
  opts.fixed_point = true;
  opts.api = beans::DriverApi::kAutosar;
  codegen::Generator gen;
  auto app = gen.generate(sub, project, opts);
  const std::string& step = app.sources.at("model.c");
  EXPECT_NE(step.find("sat16"), std::string::npos);  // fixed-point helpers
  EXPECT_NE(step.find("Pwm_SetDutyCycle"), std::string::npos);  // MCAL API
  EXPECT_TRUE(app.fixed_point);
}

TEST(ModelSyncEdge, RenameCollisionRejected) {
  model::Model m("ctrl");
  beans::BeanProject project("p");
  core::ModelSync sync(m, project);
  sync.add_pwm("PWM1");
  sync.add_pwm("PWM2");
  EXPECT_THROW(sync.rename_pe_block("PWM1", "PWM2"), std::invalid_argument);
}

TEST(PeBlockEdge, FidelityToggleSwitchesOutputType) {
  beans::BeanProject project("p");
  auto& bean = project.add<beans::QuadDecBean>("QD1");
  core::QuadDecPeBlock block("QD1_blk", bean);
  EXPECT_EQ(block.output_type(0), model::DataType::kInt16);
  block.set_hw_fidelity(false);
  EXPECT_EQ(block.output_type(0), model::DataType::kDouble);
  block.set_hw_fidelity(true);
  EXPECT_EQ(block.output_type(0), model::DataType::kInt16);
}

}  // namespace
}  // namespace iecd
