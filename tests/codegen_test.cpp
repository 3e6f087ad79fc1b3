#include <gtest/gtest.h>

#include "beans/bean_project.hpp"
#include "beans/timer_int_bean.hpp"
#include "blocks/discrete.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/sources.hpp"
#include "codegen/generator.hpp"
#include "codegen/signal_buffer.hpp"
#include "core/case_study.hpp"
#include "core/model_sync.hpp"
#include "core/pe_blocks.hpp"
#include "mcu/derivative.hpp"
#include "model/subsystem.hpp"
#include "pil/frame.hpp"

namespace iecd::codegen {
namespace {

TEST(SignalBuffer, SlotRegistrationAndAccess) {
  SignalBuffer buf;
  EXPECT_EQ(buf.add_input("QD1"), 0u);
  EXPECT_EQ(buf.add_input("AD1"), 1u);
  EXPECT_EQ(buf.add_output("PWM1"), 0u);
  buf.set_input(0, 3.14);
  buf.set_inputs({1.0, 2.0});
  EXPECT_DOUBLE_EQ(buf.input("QD1"), 1.0);
  EXPECT_DOUBLE_EQ(buf.input("AD1"), 2.0);
  buf.set_output("PWM1", 0.5);
  EXPECT_EQ(buf.outputs(), (std::vector<double>{0.5}));
  EXPECT_THROW(buf.input("nope"), std::invalid_argument);
}

/// Builds a minimal controller: TimerInt + QuadDec -> Gain -> PWM.
struct MiniController {
  model::Model top{"top"};
  model::Subsystem* sub;
  beans::BeanProject project{"p"};
  std::unique_ptr<core::ModelSync> sync;
  core::QuadDecPeBlock* qd = nullptr;
  core::PwmPeBlock* pwm = nullptr;

  MiniController() {
    sub = &top.add<model::Subsystem>("ctrl", 1, 1);
    sub->set_sample_time(model::SampleTime::discrete(0.001));
    sync = std::make_unique<core::ModelSync>(sub->inner(), project);
    auto& in = sub->inner().add<model::Inport>("in");
    auto& out = sub->inner().add<model::Outport>("out");
    sync->add_timer_int("TI1");
    qd = &sync->add_quad_dec("QD1");
    pwm = &sync->add_pwm("PWM1");
    auto& g = sub->inner().add<blocks::GainBlock>("g", 1e-4);
    sub->inner().connect(in, 0, *qd, 0);
    sub->inner().connect(*qd, 0, g, 0);
    sub->inner().connect(g, 0, *pwm, 0);
    sub->inner().connect(*pwm, 0, out, 0);
    sub->bind_ports({&in}, {&out});
  }
};

TEST(Generator, RequiresDiscreteControllerRate) {
  MiniController mc;
  mc.sub->set_sample_time(model::SampleTime::continuous());
  Generator gen;
  EXPECT_THROW(gen.generate(*mc.sub, mc.project, {}), std::invalid_argument);
}

TEST(Generator, ProducesPeriodicTaskWithCosts) {
  MiniController mc;
  Generator gen;
  util::DiagnosticList diags;
  auto app = gen.generate(*mc.sub, mc.project, {}, &diags);
  EXPECT_FALSE(diags.has_errors()) << diags.to_string();
  ASSERT_GE(app.tasks.size(), 1u);
  EXPECT_EQ(app.tasks[0].trigger, TaskSpec::Trigger::kPeriodic);
  EXPECT_DOUBLE_EQ(app.tasks[0].period_s, 0.001);
  const auto& dsc = mcu::find_derivative("DSC56F8367");
  EXPECT_GT(app.task_cycles(0, dsc.costs), 10u);
  EXPECT_GT(app.memory.data_bytes, 0u);
  EXPECT_GT(app.memory.code_bytes, 2048u);
  EXPECT_LT(app.estimated_utilisation(dsc.costs, dsc.clock_hz), 1.0);
}

TEST(Generator, StepTaskRunsNestedAtomicSubsystems) {
  // ctrl gains one -> nested(accumulator); the step task walks the
  // controller's interior, and the nested interior must run with it.
  MiniController mc;
  model::Model& inner = mc.sub->inner();
  auto& nested = inner.add<model::Subsystem>("nested", 1, 1);
  auto& n_in = nested.inner().add<model::Inport>("in");
  auto& n_out = nested.inner().add<model::Outport>("out");
  auto& acc =
      nested.inner().add<blocks::DiscreteIntegratorBlock>("acc", 1.0);
  nested.inner().connect(n_in, 0, acc, 0);
  nested.inner().connect(acc, 0, n_out, 0);
  nested.bind_ports({&n_in}, {&n_out});
  auto& one = inner.add<blocks::ConstantBlock>("one", 1.0);
  inner.connect(one, 0, nested, 0);
  Generator gen;
  auto app = gen.generate(*mc.sub, mc.project, {});
  ASSERT_GE(app.tasks.size(), 1u);
  const model::SimContext ctx{0.0, 0.001, false};
  for (int i = 0; i < 3; ++i) app.tasks[0].compute(ctx);
  EXPECT_DOUBLE_EQ(nested.out(0).as_double(), 0.002);
}

TEST(Generator, HookEnablesExactlyRequiredMethods) {
  MiniController mc;
  Generator gen;
  gen.generate(*mc.sub, mc.project, {});
  const beans::Bean* qd = mc.project.find("QD1");
  EXPECT_TRUE(qd->method_enabled("GetPosition"));
  EXPECT_FALSE(qd->method_enabled("ResetPosition"));
  const beans::Bean* pwm = mc.project.find("PWM1");
  EXPECT_TRUE(pwm->method_enabled("SetRatio16"));
  EXPECT_TRUE(pwm->method_enabled("Enable"));
  const beans::Bean* timer = mc.project.find("TI1");
  EXPECT_TRUE(timer->method_enabled("Enable"));
}

TEST(Generator, HookAlignsTimerPeriodWithControllerRate) {
  MiniController mc;
  // Timer bean starts at a different period; the hook must retune it.
  util::DiagnosticList d;
  mc.project.find("TI1")->set_property("period_s", 0.005, d);
  Generator gen;
  gen.generate(*mc.sub, mc.project, {});
  auto* timer = dynamic_cast<beans::TimerIntBean*>(mc.project.find("TI1"));
  EXPECT_DOUBLE_EQ(timer->properties().get_real("period_s"), 0.001);
}

TEST(Generator, SwitchesIoModesAndRestores) {
  MiniController mc;
  EXPECT_EQ(mc.qd->mode(), IoMode::kMil);
  Generator gen;
  gen.generate(*mc.sub, mc.project, {});
  EXPECT_EQ(mc.qd->mode(), IoMode::kTarget);
  EXPECT_EQ(mc.pwm->mode(), IoMode::kTarget);
  Generator::restore_mil_mode(*mc.sub);
  EXPECT_EQ(mc.qd->mode(), IoMode::kMil);
}

TEST(Generator, PilVariantRegistersBufferSlots) {
  MiniController mc;
  SignalBuffer buffer;
  GeneratorOptions opts;
  opts.pil = true;
  opts.pil_buffer = &buffer;
  Generator gen;
  auto app = gen.generate(*mc.sub, mc.project, opts);
  EXPECT_TRUE(app.pil_variant);
  ASSERT_EQ(buffer.input_count(), 1u);
  ASSERT_EQ(buffer.output_count(), 1u);
  EXPECT_EQ(buffer.input_names()[0], "QD1");
  EXPECT_EQ(buffer.output_names()[0], "PWM1");
  EXPECT_EQ(mc.qd->mode(), IoMode::kPil);
}

TEST(Generator, PilWithoutBufferRejected) {
  MiniController mc;
  GeneratorOptions opts;
  opts.pil = true;
  Generator gen;
  EXPECT_THROW(gen.generate(*mc.sub, mc.project, opts),
               std::invalid_argument);
}

TEST(Generator, EmitsCompilableLookingSources) {
  MiniController mc;
  Generator gen;
  const auto app = gen.generate(*mc.sub, mc.project, {});
  ASSERT_TRUE(app.sources.count("model.h"));
  ASSERT_TRUE(app.sources.count("model.c"));
  ASSERT_TRUE(app.sources.count("main.c"));
  ASSERT_TRUE(app.sources.count("PE_Types.h"));
  ASSERT_TRUE(app.sources.count("QD1.h"));
  const std::string& step = app.sources.at("model.c");
  EXPECT_NE(step.find("void model_step(void)"), std::string::npos);
  EXPECT_NE(step.find("QD1_GetPosition"), std::string::npos);
  EXPECT_NE(step.find("PWM1_SetRatio16"), std::string::npos);
  EXPECT_NE(step.find("rtb_g"), std::string::npos);
  EXPECT_GT(app.source_lines(), 50u);
}

TEST(Generator, PilSourcesUseCommBufferAccess) {
  MiniController mc;
  SignalBuffer buffer;
  GeneratorOptions opts;
  opts.pil = true;
  opts.pil_buffer = &buffer;
  Generator gen;
  const auto app = gen.generate(*mc.sub, mc.project, opts);
  const std::string& step = app.sources.at("model.c");
  EXPECT_NE(step.find("PIL_ReadInput"), std::string::npos);
  EXPECT_NE(step.find("PIL_WriteOutput"), std::string::npos);
  EXPECT_EQ(step.find("QD1_GetPosition"), std::string::npos);
}

// The servo's emitted PID states the anti-windup the simulated law runs:
// the back-calculation term is divided by Kp, on the integrator's line.
TEST(PidEmission, ServoStepDividesTheAntiWindupByKp) {
  core::ServoSystem sys{core::ServoConfig{}};
  const auto build = sys.build_target();
  ASSERT_TRUE(build.ok()) << build.diagnostics.to_string();
  const std::string& step = build.app.sources.at("servo.c");
  const std::size_t at = step.find("integral += pi_Ki_T");
  ASSERT_NE(at, std::string::npos) << step;
  const std::string line = step.substr(at, step.find('\n', at) - at);
  EXPECT_NE(line.find(" - u) / pi_Kp)"), std::string::npos) << line;
}

TEST(Generator, FixedPointChangesCostProfile) {
  MiniController mc;
  Generator gen;
  GeneratorOptions fx;
  fx.fixed_point = true;
  const auto app_fx = gen.generate(*mc.sub, mc.project, fx);
  Generator gen2;
  MiniController mc2;
  const auto app_fl = gen2.generate(*mc2.sub, mc2.project, {});
  const auto& dsc = mcu::find_derivative("DSC56F8367");
  EXPECT_LT(app_fx.task_cycles(0, dsc.costs),
            app_fl.task_cycles(0, dsc.costs));
}

TEST(Generator, MemoryOverflowFlaggedOnTinyPart) {
  // HCS08 has 4 KB RAM; a controller with a huge state burden must trip
  // the estimate.
  model::Model top{"top"};
  auto& sub = top.add<model::Subsystem>("ctrl", 0, 0);
  sub.set_sample_time(model::SampleTime::discrete(0.001));
  beans::BeanProject project("p", "HCS08GB60");
  project.add<beans::TimerIntBean>("TI1");
  // 40 moving averages x 64 taps x 8 B of double state > 4 KB.
  for (int i = 0; i < 40; ++i) {
    sub.inner().add<blocks::MovingAverageBlock>("ma" + std::to_string(i), 64);
  }
  sub.bind_ports({}, {});
  Generator gen;
  util::DiagnosticList diags;
  gen.generate(sub, project, {}, &diags);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_NE(diags.to_string().find("RAM"), std::string::npos);
}

// ------------------------------------------------------------- PIL frames

TEST(PilFrame, EncodeDecodeRoundTrip) {
  pil::Frame frame;
  frame.type = pil::FrameType::kSensorData;
  frame.seq = 42;
  frame.payload = pil::encode_signals({1.5, -2.25, 100.0});
  const auto bytes = pil::encode_frame(frame);
  EXPECT_EQ(bytes[0], pil::kSyncByte);

  pil::FrameDecoder decoder;
  pil::Frame decoded;
  bool got = false;
  decoder.set_callback([&](const pil::Frame& f) {
    decoded = f;
    got = true;
  });
  for (std::uint8_t b : bytes) decoder.feed(b);
  ASSERT_TRUE(got);
  EXPECT_EQ(decoded.seq, 42);
  const auto values = pil::decode_signals(decoded.payload);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 1.5);
  EXPECT_DOUBLE_EQ(values[1], -2.25);
  EXPECT_DOUBLE_EQ(values[2], 100.0);
  EXPECT_EQ(decoder.frames_ok(), 1u);
}

TEST(PilFrame, CorruptedFrameDroppedAndCounted) {
  pil::Frame frame;
  frame.payload = pil::encode_signals({3.0});
  auto bytes = pil::encode_frame(frame);
  bytes[5] ^= 0xFF;  // corrupt payload
  pil::FrameDecoder decoder;
  int delivered = 0;
  decoder.set_callback([&](const pil::Frame&) { ++delivered; });
  for (std::uint8_t b : bytes) decoder.feed(b);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(decoder.crc_errors(), 1u);
}

TEST(PilFrame, ResynchronizesAfterGarbage) {
  pil::FrameDecoder decoder;
  int delivered = 0;
  decoder.set_callback([&](const pil::Frame&) { ++delivered; });
  // Garbage, then a valid frame.
  for (std::uint8_t b : {0x01, 0x02, 0x03}) decoder.feed(b);
  pil::Frame frame;
  frame.payload = pil::encode_signals({1.0});
  for (std::uint8_t b : pil::encode_frame(frame)) decoder.feed(b);
  EXPECT_EQ(delivered, 1);
}

TEST(PilFrame, BackToBackFramesAllDecoded) {
  pil::FrameDecoder decoder;
  int delivered = 0;
  decoder.set_callback([&](const pil::Frame&) { ++delivered; });
  for (int i = 0; i < 10; ++i) {
    pil::Frame frame;
    frame.seq = static_cast<std::uint8_t>(i);
    frame.payload = pil::encode_signals({static_cast<double>(i)});
    for (std::uint8_t b : pil::encode_frame(frame)) decoder.feed(b);
  }
  EXPECT_EQ(delivered, 10);
}

TEST(PilFrame, EmptyPayloadFrameValid) {
  pil::Frame frame;
  pil::FrameDecoder decoder;
  int delivered = 0;
  decoder.set_callback([&](const pil::Frame& f) {
    EXPECT_TRUE(f.payload.empty());
    ++delivered;
  });
  for (std::uint8_t b : pil::encode_frame(frame)) decoder.feed(b);
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace iecd::codegen
