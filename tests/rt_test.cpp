#include <gtest/gtest.h>

#include "beans/bean_project.hpp"
#include "beans/bit_io_bean.hpp"
#include "beans/timer_int_bean.hpp"
#include "blocks/discrete.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/sources.hpp"
#include "codegen/generator.hpp"
#include "core/model_sync.hpp"
#include "core/pe_blocks.hpp"
#include "mcu/derivative.hpp"
#include "model/subsystem.hpp"
#include "obs/monitor.hpp"
#include "rt/runtime.hpp"
#include "sim/world.hpp"

namespace iecd::rt {
namespace {

/// Minimal runnable application for runtime tests: counter through a gain.
struct RtApp {
  sim::World world;
  mcu::Mcu mcu{world, mcu::find_derivative("DSC56F8367")};
  model::Model top{"top"};
  model::Subsystem* sub;
  beans::BeanProject project{"p"};
  std::unique_ptr<core::ModelSync> sync;
  codegen::GeneratedApplication app;
  blocks::DiscreteIntegratorBlock* counter = nullptr;

  explicit RtApp(double period = 0.001) {
    sub = &top.add<model::Subsystem>("ctrl", 0, 0);
    sub->set_sample_time(model::SampleTime::discrete(period));
    sync = std::make_unique<core::ModelSync>(sub->inner(), project);
    sync->add_timer_int("TI1");
    auto& one = sub->inner().add<blocks::ConstantBlock>("one", 1.0);
    counter = &sub->inner().add<blocks::DiscreteIntegratorBlock>("cnt", 1.0);
    sub->inner().connect(one, 0, *counter, 0);
    sub->bind_ports({}, {});
    project.validate();
    codegen::Generator gen;
    app = gen.generate(*sub, project, {});
    project.validate();
    project.bind(mcu);
  }
};

TEST(Runtime, RequiresBoundProject) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  beans::BeanProject project("p");
  codegen::GeneratedApplication app;
  EXPECT_THROW(Runtime(mcu, project, app), std::logic_error);
}

TEST(Runtime, PeriodicTaskRunsAtConfiguredRate) {
  RtApp rig;
  Runtime runtime(rig.mcu, rig.project, rig.app);
  runtime.start();
  // Half a period of slack so the activation at t=100 ms fully retires.
  rig.world.run_for(sim::milliseconds(100) + sim::microseconds(500));
  EXPECT_EQ(runtime.periodic_activations(), 100u);
  // Forward-Euler integrator: the latched output trails the state by one
  // update, so after n activations it reads (n-1) * T.
  EXPECT_NEAR(rig.counter->out(0).as_double(), 0.001 * 99, 1e-6);
  const auto* step = runtime.monitor(runtime.periodic_profile_key());
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->activations(), 100u);
  EXPECT_GT(step->exec_us().mean(), 0.0);
}

TEST(Runtime, StepCyclesMatchAppEstimate) {
  RtApp rig;
  Runtime runtime(rig.mcu, rig.project, rig.app);
  EXPECT_EQ(runtime.step_cycles(),
            rig.app.task_cycles(0, rig.mcu.spec().costs));
  EXPECT_GT(runtime.step_cycles(), 0u);
  EXPECT_DOUBLE_EQ(runtime.period_s(), 0.001);
}

TEST(Runtime, ExecTimeMatchesCostModel) {
  RtApp rig;
  Runtime runtime(rig.mcu, rig.project, rig.app);
  runtime.start();
  rig.world.run_for(sim::milliseconds(10));
  const auto* step = runtime.monitor(runtime.periodic_profile_key());
  ASSERT_NE(step, nullptr);
  const auto cycles = runtime.step_cycles() + rig.mcu.spec().costs.isr_entry +
                      rig.mcu.spec().costs.isr_exit;
  const double expected_us =
      static_cast<double>(cycles) / rig.mcu.spec().clock_hz * 1e6;
  EXPECT_NEAR(step->exec_us().mean(), expected_us, 0.05);
}

TEST(Runtime, AttachedHubIsTheOnlyTimingStore) {
  // Each retired dispatch is recorded once: after attach_monitors() the
  // runtime's monitor for a dispatch IS the caller hub's task monitor.
  RtApp rig;
  Runtime runtime(rig.mcu, rig.project, rig.app);
  obs::MonitorHub hub;
  runtime.attach_monitors(hub);
  EXPECT_EQ(&runtime.monitors(), &hub);
  runtime.start();
  rig.world.run_for(sim::milliseconds(10) + sim::microseconds(500));
  const obs::TimingMonitor* step =
      runtime.monitor(runtime.periodic_profile_key());
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step, hub.find_timing(rig.app.tasks[0].name));
  EXPECT_EQ(step->activations(), 10u);
  EXPECT_EQ(runtime.monitor("Unknown.OnInterrupt"), nullptr);
}

TEST(Runtime, PilVariantDoesNotEnableTimer) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  model::Model top("top");
  auto& sub = top.add<model::Subsystem>("ctrl", 0, 0);
  sub.set_sample_time(model::SampleTime::discrete(0.001));
  beans::BeanProject project("p");
  core::ModelSync sync(sub.inner(), project);
  sync.add_timer_int("TI1");
  sub.bind_ports({}, {});
  project.validate();
  codegen::SignalBuffer buffer;
  codegen::GeneratorOptions opts;
  opts.pil = true;
  opts.pil_buffer = &buffer;
  codegen::Generator gen;
  auto app = gen.generate(sub, project, opts);
  project.validate();
  project.bind(mcu);
  Runtime runtime(mcu, project, app);
  runtime.start();
  world.run_for(sim::milliseconds(50));
  // PIL: the timer does not drive the step; nothing ran.
  EXPECT_EQ(runtime.periodic_activations(), 0u);
  // step_once still executes the task by hand.
  runtime.step_once(model::SimContext{0.0, 0.001, false});
  EXPECT_EQ(runtime.periodic_activations(), 1u);
}

TEST(Runtime, OverrunWhenStepExceedsPeriod) {
  // Inflate the task cost beyond the period: activations get lost and the
  // interrupt controller counts overruns.
  RtApp rig;
  rig.app.tasks[0].extra_cycles = 200000;  // ~3.3 ms at 60 MHz > 1 ms period
  Runtime runtime(rig.mcu, rig.project, rig.app);
  runtime.start();
  rig.world.run_for(sim::milliseconds(100));
  EXPECT_LT(runtime.periodic_activations(), 50u);
  EXPECT_GT(rig.mcu.intc().overruns(), 10u);
}

TEST(Runtime, EventTaskRunsOnBeanEvent) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  model::Model top("top");
  auto& sub = top.add<model::Subsystem>("ctrl", 0, 0);
  sub.set_sample_time(model::SampleTime::discrete(0.001));
  beans::BeanProject project("p");
  core::ModelSync sync(sub.inner(), project);
  sync.add_timer_int("TI1");
  auto& key = sync.add_bit_io("Key");
  project.set_property("Key", "edge", std::string("rising"));
  auto& fc = sub.inner().add<model::FunctionCallSubsystem>("evt", 0, 0);
  fc.bind_ports({}, {});
  key.bind_event("OnInterrupt", fc);
  auto& src = sub.inner().add<blocks::ConstantBlock>("src", 0.0);
  sub.inner().connect(src, 0, key, 0);
  sub.bind_ports({}, {});
  project.validate();
  codegen::Generator gen;
  auto app = gen.generate(sub, project, {});
  project.validate();
  project.bind(mcu);
  Runtime runtime(mcu, project, app);
  runtime.start();

  auto* key_bean = dynamic_cast<beans::BitIoBean*>(project.find("Key"));
  world.queue().schedule_at(sim::milliseconds(5), [&] {
    key_bean->port()->drive_external(key_bean->pin(), true);
  });
  world.run_for(sim::milliseconds(20));
  EXPECT_EQ(fc.activations(), 1u);
  const auto* key_task = runtime.monitor("Key.OnInterrupt");
  ASSERT_NE(key_task, nullptr);
  EXPECT_EQ(key_task->activations(), 1u);
}

TEST(Runtime, MemoryReportCombinesEstimateAndObservation) {
  RtApp rig;
  Runtime runtime(rig.mcu, rig.project, rig.app);
  runtime.start();
  rig.world.run_for(sim::milliseconds(10));
  const std::string report = runtime.memory_report();
  EXPECT_NE(report.find("estimated"), std::string::npos);
  EXPECT_NE(report.find("observed"), std::string::npos);
  EXPECT_GT(rig.mcu.cpu().max_stack_bytes(), 128u);
}

TEST(Runtime, SamplingToActuationDelayVisible) {
  // The write phase commits at ISR end: a block driving a GPIO output via
  // a BitIo bean changes the pin only after the step's cycles elapsed.
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  model::Model top("top");
  auto& sub = top.add<model::Subsystem>("ctrl", 0, 0);
  sub.set_sample_time(model::SampleTime::discrete(0.001));
  beans::BeanProject project("p");
  core::ModelSync sync(sub.inner(), project);
  sync.add_timer_int("TI1");
  auto& led = sync.add_bit_io("LED");
  project.set_property("LED", "direction", std::string("output"));
  auto& one = sub.inner().add<blocks::ConstantBlock>("one", 1.0);
  sub.inner().connect(one, 0, led, 0);
  sub.bind_ports({}, {});
  project.validate();
  codegen::Generator gen;
  auto app = gen.generate(sub, project, {});
  project.validate();
  project.bind(mcu);
  Runtime runtime(mcu, project, app);
  runtime.start();

  auto* led_bean = dynamic_cast<beans::BitIoBean*>(project.find("LED"));
  sim::SimTime level_change = -1;
  led_bean->port()->set_output_observer(
      [&](int, bool level, sim::SimTime t) {
        if (level && level_change < 0) level_change = t;
      });
  world.run_for(sim::milliseconds(5));
  ASSERT_GE(level_change, 0);
  // The first activation fires at 1 ms; the write lands ISR-length later.
  EXPECT_GT(level_change, sim::milliseconds(1));
  EXPECT_LT(level_change, sim::milliseconds(1) + sim::microseconds(50));
}

}  // namespace
}  // namespace iecd::rt
