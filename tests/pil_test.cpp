#include <gtest/gtest.h>

#include "beans/serial_bean.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/sources.hpp"
#include "codegen/generator.hpp"
#include "core/model_sync.hpp"
#include "core/pe_blocks.hpp"
#include "mcu/derivative.hpp"
#include "pil/host_endpoint.hpp"
#include "pil/pil_session.hpp"
#include "pil/target_agent.hpp"
#include "rt/runtime.hpp"
#include "sim/world.hpp"

#include "serial_fault_hook.hpp"

namespace iecd::pil {
namespace {

/// Full PIL rig around a trivial controller: out = 0.5 * in (via QuadDec
/// and PWM PE blocks so both directions of the buffer are exercised).
struct PilRig {
  sim::World world;
  mcu::Mcu mcu{world, mcu::find_derivative("DSC56F8367")};
  model::Model top{"top"};
  model::Subsystem* sub;
  beans::BeanProject project{"p"};
  std::unique_ptr<core::ModelSync> sync;
  codegen::SignalBuffer buffer;
  codegen::GeneratedApplication app;
  std::unique_ptr<rt::Runtime> runtime;
  beans::SerialBean* serial = nullptr;

  PilRig() {
    sub = &top.add<model::Subsystem>("ctrl", 1, 1);
    sub->set_sample_time(model::SampleTime::discrete(0.001));
    sync = std::make_unique<core::ModelSync>(sub->inner(), project);
    auto& in = sub->inner().add<model::Inport>("in");
    auto& out = sub->inner().add<model::Outport>("out");
    sync->add_timer_int("TI1");
    auto& qd = sync->add_quad_dec("QD1");
    auto& pwm = sync->add_pwm("PWM1");
    serial = &project.add<beans::SerialBean>("AS1");
    auto& gain = sub->inner().add<blocks::GainBlock>("g", 0.5 / 32768.0);
    sub->inner().connect(in, 0, qd, 0);
    sub->inner().connect(qd, 0, gain, 0);
    sub->inner().connect(gain, 0, pwm, 0);
    sub->inner().connect(pwm, 0, out, 0);
    sub->bind_ports({&in}, {&out});
    project.validate();
    codegen::GeneratorOptions opts;
    opts.pil = true;
    opts.pil_buffer = &buffer;
    codegen::Generator gen;
    app = gen.generate(*sub, project, opts);
    project.validate();
    project.bind(mcu);
    runtime = std::make_unique<rt::Runtime>(mcu, project, app);
  }
};

TEST(PilSessionTest, ExchangesFramesAndRunsController) {
  PilRig rig;
  PilSession session(rig.world, *rig.runtime, *rig.serial, rig.buffer,
                     {0.001, 0.25, 115200});
  double last_actuator = -1.0;
  int samples = 0;
  session.set_plant(
      [&](std::vector<double>& out) {
        ++samples;
        // The plant "angle" maps to counts via the QuadDec block; feed a
        // quarter revolution (100 counts at 400 cpr).
        out.push_back(3.14159265 / 2.0);
      },
      [&](const std::vector<double>& a) {
        ASSERT_EQ(a.size(), 1u);
        last_actuator = a[0];
      },
      [](double) {});
  const PilReport report = session.run();
  EXPECT_GT(report.exchanges, 200u);
  EXPECT_EQ(report.crc_errors, 0u);
  // At 115200 baud a full exchange takes longer than the 1 ms period, but
  // the full-duplex line pipelines: after the first period the loop runs
  // with exactly one period of transport lag, so at most the initial
  // exchange misses and at most one frame is still in flight at the end.
  EXPECT_LE(report.deadline_misses, 1u);
  EXPECT_GE(report.frames_processed + 1, report.exchanges);
  EXPECT_GT(samples, 200);
  // Controller: counts(=100) * 0.5/32768 then PWM duty quantization.
  EXPECT_NEAR(last_actuator, 100.0 * 0.5 / 32768.0, 1e-3);
  EXPECT_GT(report.round_trip_us().mean(), 100.0);
  EXPECT_GT(report.comm_time_per_step_us, 0.0);
  EXPECT_GT(report.controller_exec_us_mean, 0.0);
}

TEST(PilSessionTest, RoundTripScalesWithBaud) {
  double rtt_fast = 0.0;
  double rtt_slow = 0.0;
  for (const std::uint32_t baud : {460800u, 57600u}) {
    PilRig rig;
    PilSession session(rig.world, *rig.runtime, *rig.serial, rig.buffer,
                       {0.005, 0.25, baud});
    session.set_plant(
        [](std::vector<double>& out) { out.push_back(1.0); },
        [](const std::vector<double>&) {}, [](double) {});
    const auto report = session.run();
    if (baud == 460800u) {
      rtt_fast = report.round_trip_us().mean();
    } else {
      rtt_slow = report.round_trip_us().mean();
    }
  }
  // 8x slower line -> roughly 8x the wire time (controller exec is tiny).
  EXPECT_GT(rtt_slow / rtt_fast, 5.0);
}

TEST(PilSessionTest, CorruptionCausesBoundedFrameLossAndRecovery) {
  PilRig rig;
  PilSession session(rig.world, *rig.runtime, *rig.serial, rig.buffer,
                     {0.001, 0.2, 115200});
  session.set_plant(
      [](std::vector<double>& out) { out.push_back(1.0); },
      [](const std::vector<double>&) {}, [](double) {});
  // Corrupt one wire byte early in the run (host -> target direction).
  // Depending on which byte it hits, the frame dies via CRC check or via
  // lost sync; either way the damage is bounded and the stream recovers.
  rig.world.queue().schedule_at(sim::milliseconds(5), [&] {
    session.link().a_to_b().set_fault_hook(testhooks::flip_first_byte(0x40));
  });
  const auto report = session.run();
  EXPECT_LT(report.frames_processed, report.exchanges);
  EXPECT_GE(report.frames_processed + 5, report.exchanges);  // bounded loss
  EXPECT_GT(report.frames_processed, 150u);                  // recovered
}

TEST(PilSessionTest, PayloadCorruptionIsCaughtByCrc) {
  // Arm the corruption mid-frame (the exchange starts exactly on the
  // period boundary; 300 us in, a payload byte is on the wire).
  PilRig rig;
  PilSession session(rig.world, *rig.runtime, *rig.serial, rig.buffer,
                     {0.001, 0.2, 115200});
  session.set_plant(
      [](std::vector<double>& out) { out.push_back(1.0); },
      [](const std::vector<double>&) {}, [](double) {});
  rig.world.queue().schedule_at(
      sim::milliseconds(5) + sim::microseconds(300), [&] {
        session.link().a_to_b().set_fault_hook(
            testhooks::flip_first_byte(0x01));
      });
  const auto report = session.run();
  EXPECT_GE(report.crc_errors, 1u);
  EXPECT_GT(report.frames_processed, 150u);
}

TEST(PilSessionTest, SlowLinkMissesDeadlines) {
  PilRig rig;
  PilSession session(rig.world, *rig.runtime, *rig.serial, rig.buffer,
                     {0.001, 0.2, 9600});
  session.set_plant(
      [](std::vector<double>& out) { out.push_back(1.0); },
      [](const std::vector<double>&) {}, [](double) {});
  const auto report = session.run();
  EXPECT_GT(report.deadline_misses, 100u);
  EXPECT_GT(report.comm_overhead_ratio, 1.0);
}

TEST(PilSessionTest, AdvanceCallbackSeesMonotonicTime) {
  PilRig rig;
  PilSession session(rig.world, *rig.runtime, *rig.serial, rig.buffer,
                     {0.001, 0.1, 115200});
  double last_t = -1.0;
  bool monotonic = true;
  session.set_plant(
      [](std::vector<double>& out) { out.push_back(0.0); },
      [](const std::vector<double>&) {},
      [&](double t) {
        if (t < last_t) monotonic = false;
        last_t = t;
      });
  session.run();
  EXPECT_TRUE(monotonic);
  EXPECT_GT(last_t, 0.09);
}

TEST(HostEndpointTest, CountsMissWhenResponseNeverComes) {
  sim::World world;
  sim::SerialConfig cfg;
  cfg.baud_rate = 115200;
  sim::SerialLink link(world, cfg);
  HostEndpoint::Options opts;
  opts.period = sim::milliseconds(1);
  HostEndpoint host(world, link.a_to_b(), link.b_to_a(), opts);
  util::LatencyHistogram round_trip_us;
  host.set_latency_series(&round_trip_us, nullptr);
  host.set_plant(
      [](std::vector<double>& out) { out.push_back(1.0); },
      [](const std::vector<double>&) {}, [](double) {});
  host.start();  // nobody answers on the other end
  world.run_for(sim::milliseconds(50));
  host.stop();
  EXPECT_GT(host.deadline_misses(), 40u);
  EXPECT_EQ(round_trip_us.count(), 0u);
}

TEST(HostEndpointTest, RetransmitTimeoutDoublesUpToTheIntervalThenAbandons) {
  // One unanswered exchange with recovery on: the retransmit timeout
  // starts at Recovery.timeout, doubles per copy, is capped at the
  // exchange interval, and the exchange is abandoned one timeout after
  // the last of max_retransmits copies.  stop() right after the first
  // exchange keeps the next one from superseding the recovery.
  sim::World world;
  sim::SerialLink link(world, sim::SerialConfig::rs232(1000000));
  HostEndpoint::Options opts;
  opts.period = sim::milliseconds(1);
  opts.recovery.enabled = true;
  opts.recovery.timeout = sim::microseconds(100);
  opts.recovery.max_retransmits = 6;
  HostEndpoint host(world, link.a_to_b(), link.b_to_a(), opts);
  std::vector<sim::SimTime> sends;
  host.set_tx_fault_hook([&](std::size_t) {
    sends.push_back(world.now());
    return HostEndpoint::TxFault{};
  });
  host.set_plant(
      [](std::vector<double>& out) { out.push_back(1.0); },
      [](const std::vector<double>&) {}, [](double) {});
  host.start();  // nobody answers on the other end
  world.run_until(sim::microseconds(1500));
  host.stop();
  world.run_until(sim::microseconds(5499));
  EXPECT_EQ(host.exchanges_abandoned(), 0u);
  world.run_until(sim::milliseconds(20));

  // Original send at 1 ms, then copies 100, 200, 400, 800 µs apart, and
  // 1000 µs (the interval) from there on.
  const std::vector<sim::SimTime> expected = {
      sim::microseconds(1000), sim::microseconds(1100),
      sim::microseconds(1300), sim::microseconds(1700),
      sim::microseconds(2500), sim::microseconds(3500),
      sim::microseconds(4500)};
  EXPECT_EQ(sends, expected);
  EXPECT_EQ(host.exchanges(), 1u);
  EXPECT_EQ(host.retransmits(), 6u);
  EXPECT_EQ(host.exchanges_abandoned(), 1u);
  EXPECT_EQ(host.recovered_exchanges(), 0u);
}

TEST(TargetAgentTest, IgnoresActuatorTypeFrames) {
  PilRig rig;
  TargetAgent agent(*rig.runtime, *rig.serial, rig.buffer);
  sim::SerialConfig cfg;
  sim::SerialLink link(rig.world, cfg);
  rig.serial->peripheral()->connect(link.b_to_a(), link.a_to_b());
  rig.runtime->start();
  agent.start();
  // Send an actuator-type frame at the target: must not trigger a step.
  Frame frame;
  frame.type = FrameType::kActuatorData;
  frame.payload = encode_signals({1.0});
  const auto bytes = encode_frame(frame);
  link.a_to_b().transmit(bytes.data(), bytes.size());
  rig.world.run_for(sim::milliseconds(20));
  EXPECT_EQ(agent.frames_processed(), 0u);
  EXPECT_EQ(rig.runtime->periodic_activations(), 0u);
}

TEST(PilDeterminism, TwoIdenticalRunsProduceIdenticalReports) {
  auto run_once = [] {
    PilRig rig;
    PilSession session(rig.world, *rig.runtime, *rig.serial, rig.buffer,
                       {0.001, 0.2, 115200});
    session.set_plant(
        [](std::vector<double>& out) { out.push_back(1.23); },
        [](const std::vector<double>&) {}, [](double) {});
    return session.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.exchanges, b.exchanges);
  EXPECT_EQ(a.frames_processed, b.frames_processed);
  EXPECT_DOUBLE_EQ(a.round_trip_us().mean(), b.round_trip_us().mean());
  EXPECT_DOUBLE_EQ(a.controller_exec_us_mean, b.controller_exec_us_mean);
}

}  // namespace
}  // namespace iecd::pil
