#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "beans/serial_bean.hpp"
#include "blocks/math_blocks.hpp"
#include "campaign/engine.hpp"
#include "codegen/generator.hpp"
#include "core/case_study.hpp"
#include "core/model_sync.hpp"
#include "evidence/reader.hpp"
#include "evidence/sink.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/rng.hpp"
#include "fault/sites.hpp"
#include "mcu/derivative.hpp"
#include "mcu/mcu.hpp"
#include "obs/monitor.hpp"
#include "periph/adc.hpp"
#include "pil/pil_session.hpp"
#include "rt/runtime.hpp"
#include "sim/can_bus.hpp"
#include "sim/serial_link.hpp"
#include "sim/world.hpp"

#include "golden/campaign_reports.inc"

namespace iecd::fault {
namespace {

// ---------------------------------------------------------------- RNG core

TEST(FaultRng, SplitMixAndXoshiroAreDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
  Xoshiro256ss x(7), y(7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(x.next(), y.next());
  const double u = Xoshiro256ss(7).uniform01();
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
}

TEST(FaultRng, SiteSeedDependsOnCampaignSeedAndName) {
  EXPECT_EQ(site_seed(1, "serial.rs232"), site_seed(1, "serial.rs232"));
  EXPECT_NE(site_seed(1, "serial.rs232"), site_seed(2, "serial.rs232"));
  EXPECT_NE(site_seed(1, "serial.rs232"), site_seed(1, "can.can"));
}

TEST(FaultRng, SiteSeedIsPinned) {
  // Recorded campaigns replay only while every site stream keeps its seed:
  // pin the FNV-1a name hash (published test vectors) and one site seed.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(site_seed(1, "serial.rs232"), 0x7a618db02bfcc139ULL);
}

TEST(FaultInjector, SiteStreamIndependentOfCreationOrder) {
  FaultInjector fwd(99, FaultPlan{});
  FaultInjector rev(99, FaultPlan{});
  auto& fwd_serial = fwd.site("serial.rs232");
  auto& fwd_can = fwd.site("can.can");
  auto& rev_can = rev.site("can.can");      // opposite creation order
  auto& rev_serial = rev.site("serial.rs232");
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(fwd_serial.next_u64(), rev_serial.next_u64());
    EXPECT_EQ(fwd_can.next_u64(), rev_can.next_u64());
  }
}

TEST(FaultInjector, ZeroRateSiteIsStreamSilent) {
  // A site that only ever sees rate-0 opportunities draws nothing: its
  // stream is exactly where a fresh site's stream starts.
  FaultInjector quiet(5, FaultPlan{});
  FaultInjector fresh(5, FaultPlan{});
  auto& q = quiet.site("mcu.irq");
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(q.fire(0.0));
  EXPECT_EQ(q.opportunities(), 0u);
  EXPECT_EQ(q.injected(), 0u);
  auto& f = fresh.site("mcu.irq");
  for (int i = 0; i < 16; ++i) EXPECT_EQ(q.next_u64(), f.next_u64());
}

TEST(FaultInjector, SameSeedSameSiteReplaysIdenticalFaultSequence) {
  // The (campaign seed, site) pair fully determines the fault sequence —
  // the property that lets one fault be replayed in isolation.
  const std::uint64_t seed = run_seed(31, 3);
  std::vector<int> first, second;
  for (std::vector<int>* out : {&first, &second}) {
    FaultInjector injector(seed, FaultPlan{});
    auto& site = injector.site("serial.rs232.a_to_b");
    for (int i = 0; i < 4096; ++i) {
      if (site.fire(0.01)) out->push_back(i);
    }
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(FaultPlan, EmptyAndScaled) {
  EXPECT_TRUE(FaultPlan{}.empty());
  EXPECT_FALSE(FaultPlan::defaults().empty());
  EXPECT_TRUE(FaultPlan::defaults().scaled(0.0).empty());
  const FaultPlan doubled = FaultPlan::defaults().scaled(2.0);
  EXPECT_DOUBLE_EQ(doubled.serial_corrupt_rate,
                   2.0 * FaultPlan::defaults().serial_corrupt_rate);
  EXPECT_EQ(doubled.irq_spike_cycles, FaultPlan::defaults().irq_spike_cycles);
  for (const FaultPlan& plan : {FaultPlan{}, FaultPlan::defaults(), doubled}) {
    EXPECT_TRUE(validate(plan).empty()) << validate(plan).to_string();
  }
}

struct BadPlanField {
  const char* field;
  double FaultPlan::*member;
  double value;
};

// CTest names a table row after gtest's print of its parameter.
void PrintTo(const BadPlanField& row, std::ostream* os) { *os << row.field; }

class FaultPlanRejects : public ::testing::TestWithParam<BadPlanField> {};

// One error naming fault.<field>; the injector and the engine refuse it.
TEST_P(FaultPlanRejects, WithOneDiagnosticAndNoRun) {
  FaultPlan plan = FaultPlan::defaults();
  plan.*GetParam().member = GetParam().value;
  const util::DiagnosticList diags = validate(plan);
  ASSERT_EQ(diags.size(), 1u) << diags.to_string();
  EXPECT_EQ(diags.items()[0].severity, util::Severity::kError);
  EXPECT_EQ(diags.items()[0].component,
            std::string("fault.") + GetParam().field);
  EXPECT_THROW(FaultInjector(1, plan), std::invalid_argument);
  campaign::EngineOptions eo;
  eo.campaign.plan = plan;
  EXPECT_THROW(campaign::CampaignEngine{eo}, std::invalid_argument);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

INSTANTIATE_TEST_SUITE_P(
    Fields, FaultPlanRejects,
    ::testing::Values(
        BadPlanField{"serial_corrupt_rate", &FaultPlan::serial_corrupt_rate,
                     kNaN},
        BadPlanField{"serial_drop_rate", &FaultPlan::serial_drop_rate, 1.5},
        BadPlanField{"serial_dup_rate", &FaultPlan::serial_dup_rate, -0.1},
        BadPlanField{"can_corrupt_rate", &FaultPlan::can_corrupt_rate, kInf},
        BadPlanField{"can_drop_rate", &FaultPlan::can_drop_rate, kNaN},
        BadPlanField{"can_dup_rate", &FaultPlan::can_dup_rate, 2.0},
        BadPlanField{"pil_truncate_rate", &FaultPlan::pil_truncate_rate, -kInf},
        BadPlanField{"pil_delay_rate", &FaultPlan::pil_delay_rate, kNaN},
        BadPlanField{"pil_delay_max_s", &FaultPlan::pil_delay_max_s, kInf},
        BadPlanField{"irq_spike_rate", &FaultPlan::irq_spike_rate, 1.0001},
        BadPlanField{"task_overrun_rate", &FaultPlan::task_overrun_rate, -1.0},
        BadPlanField{"adc_stuck_rate", &FaultPlan::adc_stuck_rate, kNaN},
        BadPlanField{"adc_noise_rate", &FaultPlan::adc_noise_rate, kInf},
        BadPlanField{"encoder_glitch_rate", &FaultPlan::encoder_glitch_rate,
                     3.0},
        BadPlanField{"torque_pulse_rate_hz", &FaultPlan::torque_pulse_rate_hz,
                     kInf},
        BadPlanField{"torque_pulse_nm", &FaultPlan::torque_pulse_nm, kNaN},
        BadPlanField{"torque_pulse_s", &FaultPlan::torque_pulse_s, -0.01},
        BadPlanField{"node_kill_rate", &FaultPlan::node_kill_rate, kNaN},
        BadPlanField{"node_degrade_rate", &FaultPlan::node_degrade_rate, 1.1},
        BadPlanField{"node_degrade_factor", &FaultPlan::node_degrade_factor,
                     0.5}));

TEST(FaultCampaignSeeding, RunSeedsAreDistinctAndStable) {
  EXPECT_EQ(run_seed(1, 0), run_seed(1, 0));
  EXPECT_NE(run_seed(1, 0), run_seed(1, 1));
  EXPECT_NE(run_seed(1, 0), run_seed(2, 0));
}

// ------------------------------------------------------------- link sites

TEST(FaultSites, SerialDropRateOneLosesEveryByte) {
  sim::World world;
  sim::SerialLink link(world, sim::SerialConfig::rs232(115200), "rs232");
  std::size_t received = 0;
  link.a_to_b().set_receiver(
      [&](std::uint8_t, sim::SimTime) { ++received; });
  FaultPlan plan;
  plan.serial_drop_rate = 1.0;
  FaultInjector injector(1, plan);
  wire_serial_channel(injector, link.a_to_b());
  for (int i = 0; i < 50; ++i) {
    link.a_to_b().transmit(static_cast<std::uint8_t>(i));
  }
  world.run_for(sim::milliseconds(100));
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(link.a_to_b().bytes_dropped(), 50u);
  const auto* site = injector.find_site("serial.rs232.a2b");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->injected(), 50u);
  EXPECT_EQ(site->opportunities(), 50u);
}

TEST(FaultSites, SerialCorruptionFlipsExactlyOneBit) {
  sim::World world;
  sim::SerialLink link(world, sim::SerialConfig::rs232(115200), "rs232");
  std::vector<std::uint8_t> received;
  link.a_to_b().set_receiver(
      [&](std::uint8_t b, sim::SimTime) { received.push_back(b); });
  FaultPlan plan;
  plan.serial_corrupt_rate = 1.0;
  FaultInjector injector(1, plan);
  wire_serial_channel(injector, link.a_to_b());
  for (int i = 0; i < 32; ++i) link.a_to_b().transmit(0x55);
  world.run_for(sim::milliseconds(100));
  ASSERT_EQ(received.size(), 32u);
  for (std::uint8_t b : received) {
    const std::uint8_t diff = b ^ 0x55;
    EXPECT_NE(diff, 0);                      // the byte really changed
    EXPECT_EQ(diff & (diff - 1), 0) << int(diff);  // by a single bit
  }
  EXPECT_EQ(link.a_to_b().bytes_corrupted(), 32u);
}

TEST(FaultSites, CanDropRateOneLosesEveryFrame) {
  sim::World world;
  sim::CanBus bus(world, 500000, "can");
  std::size_t received = 0;
  bus.attach_node("rx", [&](const sim::CanFrame&, sim::SimTime) {
    ++received;
  });
  const auto tx = bus.attach_node("tx", nullptr);
  FaultPlan plan;
  plan.can_drop_rate = 1.0;
  FaultInjector injector(1, plan);
  wire_can_bus(injector, bus);
  for (std::uint32_t i = 0; i < 20; ++i) {
    bus.transmit(tx, {0x100 + i, {1, 2, 3}});
  }
  world.run_for(sim::milliseconds(100));
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(bus.stats().frames_dropped, 20u);
  EXPECT_EQ(bus.stats().frames_delivered, 0u);
}

TEST(FaultSites, CanDuplicationDeliversExtraCopies) {
  sim::World world;
  sim::CanBus bus(world, 500000, "can");
  std::size_t received = 0;
  bus.attach_node("rx", [&](const sim::CanFrame&, sim::SimTime) {
    ++received;
  });
  const auto tx = bus.attach_node("tx", nullptr);
  FaultPlan plan;
  plan.can_dup_rate = 0.4;
  FaultInjector injector(3, plan);
  wire_can_bus(injector, bus);
  for (std::uint32_t i = 0; i < 40; ++i) {
    bus.transmit(tx, {0x100 + i, {1, 2}});
  }
  world.run_for(sim::milliseconds(500));
  EXPECT_GT(bus.stats().frames_duplicated, 0u);
  // Every original and every duplicated copy reaches the receiver.
  EXPECT_EQ(received, 40u + bus.stats().frames_duplicated);
}

// ----------------------------------------------------------- sensor sites

TEST(FaultSites, AdcStuckAtRepeatsLastConversion) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  periph::AdcPeripheral adc(mcu, periph::AdcConfig{}, "adc");
  double volts = 0.5;
  adc.set_analog_source(0, [&](sim::SimTime) { return volts; });
  FaultPlan plan;
  plan.adc_stuck_rate = 1.0;
  FaultInjector injector(1, plan);
  wire_adc(injector, adc);
  const std::uint32_t first = adc.sample_now(0);  // latches, nothing to hold
  volts = 2.5;  // the source moves, the stuck converter must not
  const std::uint32_t second = adc.sample_now(0);
  EXPECT_EQ(second, first);
  EXPECT_NE(adc.volts_to_code(2.5), first);
}

TEST(FaultSites, AdcNoiseStaysWithinConfiguredLsb) {
  sim::World world;
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  periph::AdcPeripheral adc(mcu, periph::AdcConfig{}, "adc");
  adc.set_analog_source(0, [](sim::SimTime) { return 1.65; });
  FaultPlan plan;
  plan.adc_noise_rate = 1.0;
  plan.adc_noise_lsb = 2;
  FaultInjector injector(1, plan);
  wire_adc(injector, adc);
  const std::uint32_t clean = adc.volts_to_code(1.65);
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t code = adc.sample_now(0);
    const std::int64_t diff =
        static_cast<std::int64_t>(code) - static_cast<std::int64_t>(clean);
    EXPECT_GE(diff, -2);
    EXPECT_LE(diff, 2);
    EXPECT_NE(diff, 0);  // rate 1.0: every conversion is perturbed
  }
}

TEST(FaultSites, TorquePulseScheduleIsPureAndReplayable) {
  FaultPlan plan;
  plan.torque_pulse_rate_hz = 20.0;
  plan.torque_pulse_nm = 0.01;
  plan.torque_pulse_s = 0.005;
  FaultInjector a(11, plan);
  FaultInjector b(11, plan);
  plant::LoadTorque la = make_load_torque(a, 1.0);
  plant::LoadTorque lb = make_load_torque(b, 1.0);
  ASSERT_TRUE(la);
  ASSERT_TRUE(lb);
  const auto* site = a.find_site("plant.torque");
  ASSERT_NE(site, nullptr);
  EXPECT_GT(site->injected(), 0u);
  bool saw_pulse = false;
  for (int i = 0; i < 2000; ++i) {
    const double t = i * 5e-4;
    const double torque = la(t, 0.0);
    EXPECT_DOUBLE_EQ(torque, lb(t, 0.0));      // same seed -> same schedule
    EXPECT_DOUBLE_EQ(torque, la(t, 0.0));      // pure in t (re-evaluation)
    if (torque != 0.0) {
      saw_pulse = true;
      EXPECT_DOUBLE_EQ(std::abs(torque), 0.01);
    }
  }
  EXPECT_TRUE(saw_pulse);
}

TEST(FaultSites, EmptyPlanWiresNoSites) {
  sim::World world;
  sim::SerialLink link(world, sim::SerialConfig::rs232(115200), "rs232");
  sim::CanBus bus(world, 500000, "can");
  mcu::Mcu mcu(world, mcu::find_derivative("DSC56F8367"));
  periph::AdcPeripheral adc(mcu, periph::AdcConfig{}, "adc");
  FaultInjector injector(1, FaultPlan{});
  wire_serial_channel(injector, link.a_to_b());
  wire_can_bus(injector, bus);
  wire_cpu(injector, mcu.cpu());
  wire_adc(injector, adc);
  EXPECT_TRUE(injector.sites().empty());
  EXPECT_FALSE(make_load_torque(injector, 1.0));
  trace::MetricsRegistry metrics;
  injector.export_metrics(metrics);
  EXPECT_EQ(metrics.report(), trace::MetricsRegistry().report());
}

// ------------------------------------------------------------ PIL recovery

/// Full PIL rig around a trivial controller (out = 0.5 * in through the
/// QuadDec/PWM PE blocks), mirroring the pil_test rig, on a fast link so
/// the round trip fits well inside the exchange interval and recovery
/// timeouts are meaningful.
struct RecoveryRig {
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

  RecoveryRig() {
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

TEST(PilRecoveryTest, RetransmitRecoversFromDroppedResponse) {
  RecoveryRig rig;
  pil::PilSession::Options opts;
  opts.duration_s = 0.05;
  opts.baud = 1000000;
  opts.recovery.enabled = true;
  opts.recovery.max_retransmits = 5;
  pil::PilSession session(rig.world, *rig.runtime, *rig.serial, rig.buffer,
                          opts);
  // Kill every board->host byte inside an initial window (the host takes
  // response bursts at burst completion, so the window spans the first two
  // exchange rounds): the responses are lost, the host times out and
  // retransmits the SAME seq, the board answers from its duplicate cache,
  // and once the window passes an exchange completes on a retransmitted
  // copy -> recovered exchange, nothing abandoned.
  session.link().b_to_a().set_fault_hook(
      [&](std::uint8_t) {
        sim::SerialChannel::ByteFault fault;
        if (rig.world.now() < sim::microseconds(2500)) {
          fault.action = sim::SerialChannel::ByteFaultAction::kDrop;
        }
        return fault;
      });
  session.set_plant(
      [](std::vector<double>& out) { out.push_back(1.0); },
      [](const std::vector<double>&) {}, [](double) {});
  const pil::PilReport report = session.run();
  EXPECT_GE(session.host().retransmits(), 1u);
  EXPECT_GE(session.host().recovered_exchanges(), 1u);
  EXPECT_EQ(session.host().exchanges_abandoned(), 0u);
  // The board saw at least one retransmitted seq and did NOT re-step the
  // controller for it.
  EXPECT_GE(session.agent().duplicate_frames(), 1u);
  ASSERT_NE(report.metrics.find_series("pil.recovery_us"), nullptr);
  EXPECT_GT(report.metrics.find_series("pil.recovery_us")->count(), 0u);
  // The run settles back to normal operation after the fault window.
  EXPECT_GT(report.exchanges, 40u);
  // Metrics mirror the recovery counters.
  const auto* retransmits = report.metrics.find_counter("pil.retransmits");
  ASSERT_NE(retransmits, nullptr);
  EXPECT_EQ(retransmits->value, session.host().retransmits());
  const auto* duplicates = report.metrics.find_counter("pil.duplicate_frames");
  ASSERT_NE(duplicates, nullptr);
  EXPECT_EQ(duplicates->value, session.agent().duplicate_frames());
}

TEST(PilRecoveryTest, PersistentLossAbandonsAndHoldsLastOutput) {
  RecoveryRig rig;
  pil::PilSession::Options opts;
  opts.duration_s = 0.02;
  opts.baud = 1000000;
  opts.recovery.enabled = true;
  opts.recovery.timeout = sim::microseconds(125);
  opts.recovery.max_retransmits = 2;
  pil::PilSession session(rig.world, *rig.runtime, *rig.serial, rig.buffer,
                          opts);
  // The board's responses never arrive: every exchange must exhaust its
  // retransmit budget and be abandoned, holding the last (initial) output.
  session.link().b_to_a().set_fault_hook([](std::uint8_t) {
    return sim::SerialChannel::ByteFault{
        sim::SerialChannel::ByteFaultAction::kDrop, 0};
  });
  std::size_t applied = 0;
  session.set_plant(
      [](std::vector<double>& out) { out.push_back(1.0); },
      [&](const std::vector<double>&) { ++applied; }, [](double) {});
  const pil::PilReport report = session.run();
  EXPECT_GT(report.exchanges, 10u);
  EXPECT_GE(session.host().exchanges_abandoned(), 10u);
  EXPECT_EQ(session.host().recovered_exchanges(), 0u);
  EXPECT_EQ(applied, 0u);  // hold-last-output: nothing ever applied
  const auto* abandoned =
      report.metrics.find_counter("pil.exchanges_abandoned");
  ASSERT_NE(abandoned, nullptr);
  EXPECT_EQ(abandoned->value, session.host().exchanges_abandoned());
}

TEST(PilRecoveryTest, DisabledRecoveryKeepsLegacyCountersZero) {
  RecoveryRig rig;
  pil::PilSession::Options opts;
  opts.duration_s = 0.05;
  opts.baud = 1000000;
  pil::PilSession session(rig.world, *rig.runtime, *rig.serial, rig.buffer,
                          opts);
  session.set_plant(
      [](std::vector<double>& out) { out.push_back(1.0); },
      [](const std::vector<double>&) {}, [](double) {});
  (void)session.run();
  EXPECT_EQ(session.host().retransmits(), 0u);
  EXPECT_EQ(session.host().recovered_exchanges(), 0u);
  EXPECT_EQ(session.host().exchanges_abandoned(), 0u);
  EXPECT_EQ(session.agent().duplicate_frames(), 0u);
}

// ------------------------------------------------- zero-rate bit-identity

TEST(FaultDeterminismTest, EmptyPlanPilRunIsBitIdentical) {
  core::ServoConfig cfg;
  cfg.duration_s = 0.12;
  cfg.setpoint_time = 0.02;

  auto run = [&](bool attach_faults) {
    core::ServoSystem servo(cfg);
    obs::MonitorHub hub;
    FaultInjector injector(1, FaultPlan{});  // every rate zero
    core::ServoSystem::PilRunOptions opts;
    opts.monitors = &hub;
    if (attach_faults) opts.faults = &injector;
    auto result = servo.run_pil(opts);
    EXPECT_TRUE(injector.sites().empty());
    return std::tuple<std::vector<double>, double, std::string, std::string>(
        result.speed.values(), result.iae, result.report.metrics.report(),
        hub.report("pil").to_json());
  };
  const auto baseline = run(false);
  const auto wired = run(true);
  EXPECT_EQ(std::get<0>(baseline), std::get<0>(wired));  // trajectory
  EXPECT_EQ(std::get<1>(baseline), std::get<1>(wired));  // IAE, exact
  EXPECT_EQ(std::get<2>(baseline), std::get<2>(wired));  // metrics report
  EXPECT_EQ(std::get<3>(baseline), std::get<3>(wired));  // health JSON
}

TEST(FaultDeterminismTest, EmptyPlanHilRunIsBitIdentical) {
  core::ServoConfig cfg;
  cfg.duration_s = 0.15;
  cfg.setpoint_time = 0.02;

  auto run = [&](bool attach_faults) {
    core::ServoSystem servo(cfg);
    FaultInjector injector(1, FaultPlan{});
    core::ServoSystem::HilOptions opts;
    if (attach_faults) opts.faults = &injector;
    auto result = servo.run_hil(opts);
    EXPECT_TRUE(injector.sites().empty());
    return std::pair<std::vector<double>, double>(result.speed.values(),
                                                  result.iae);
  };
  const auto baseline = run(false);
  const auto wired = run(true);
  EXPECT_EQ(baseline.first, wired.first);
  EXPECT_EQ(baseline.second, wired.second);
}

// The encoder-glitch site draws once per 50 us poll instant of the run,
// the final instant included, whenever the decoder happens to be read:
// both counts are pinned.
TEST(FaultSites, HilEncoderGlitchDrawsOncePerPoll) {
  core::ServoConfig cfg;
  cfg.duration_s = 0.15;
  cfg.setpoint_time = 0.02;
  core::ServoSystem servo(cfg);
  FaultPlan plan;
  plan.encoder_glitch_rate = 0.01;
  plan.encoder_glitch_counts = 3;
  FaultInjector injector(11, plan);
  core::ServoSystem::HilOptions opts;
  opts.faults = &injector;
  const auto result = servo.run_hil(opts);
  const FaultInjector::Site* site = injector.find_site("encoder.encoder");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->opportunities(), 3000u);  // 0.15 s / 50 us
  EXPECT_EQ(site->injected(), 26u);
  EXPECT_TRUE(std::isfinite(result.iae));
}

// --------------------------------------------------------------- campaign

/// Shared campaign scenario: the case-study servo under PIL on a fast link
/// with recovery enabled, every fault layer wired.  Records the scenario
/// results the campaign report gates on.
CampaignScenario servo_pil_scenario(double duration_s) {
  return [duration_s](RunContext& ctx) {
    core::ServoConfig cfg;
    cfg.duration_s = duration_s;
    cfg.setpoint_time = 0.02;
    core::ServoSystem servo(cfg);
    obs::MonitorHub hub;
    core::ServoSystem::PilRunOptions opts;
    opts.baud = 1000000;
    opts.faults = &ctx.injector;
    opts.monitors = &hub;
    opts.recovery.enabled = true;
    const auto result = servo.run_pil(opts);
    ctx.metrics.merge(result.report.metrics);
    ctx.metrics.stats("campaign.iae").add(result.iae);
    ctx.health.merge(hub.report("pil"));
    const auto* abandoned =
        result.report.metrics.find_counter("pil.exchanges_abandoned");
    return abandoned == nullptr || abandoned->value == 0;
  };
}

CampaignReport run_campaign(const CampaignOptions& opts,
                            const CampaignScenario& scenario,
                            const std::string& evidence_dir = "") {
  campaign::EngineOptions eo;
  eo.campaign = opts;
  eo.evidence_dir = evidence_dir;
  return campaign::CampaignEngine(eo).run(scenario).report;
}

TEST(FaultCampaignTest, ReportIsByteIdenticalAcrossThreadCounts) {
  CampaignOptions opts;
  opts.name = "thread-invariance";
  opts.seed = 7;
  opts.runs = 4;
  opts.plan = FaultPlan::defaults();
  opts.threads = 1;
  const CampaignReport serial_report =
      run_campaign(opts, servo_pil_scenario(0.08));
  opts.threads = 4;
  const CampaignReport parallel_report =
      run_campaign(opts, servo_pil_scenario(0.08));
  EXPECT_GT(serial_report.faults_injected, 0u);
  EXPECT_EQ(serial_report.to_json(), golden::kThreadInvarianceJson);
  EXPECT_EQ(parallel_report.to_json(), golden::kThreadInvarianceJson);
  EXPECT_EQ(serial_report.merged.report(), parallel_report.merged.report());
}

TEST(FaultCampaignTest, DefaultRatesRecoverWithBoundedDegradation) {
  // Clean reference: same scenario, zero-rate plan.
  CampaignOptions clean;
  clean.name = "clean";
  clean.seed = 7;
  clean.runs = 2;
  const CampaignReport clean_report =
      run_campaign(clean, servo_pil_scenario(0.15));
  EXPECT_EQ(clean_report.unrecovered, 0u);
  EXPECT_EQ(clean_report.faults_injected, 0u);

  CampaignOptions faulty = clean;
  faulty.name = "defaults";
  faulty.plan = FaultPlan::defaults();
  const CampaignReport report =
      run_campaign(faulty, servo_pil_scenario(0.15));
  EXPECT_GT(report.faults_injected, 0u);
  EXPECT_GT(report.fault_opportunities, report.faults_injected);
  EXPECT_EQ(report.unrecovered, 0u) << report.summary();
  EXPECT_TRUE(report.unrecovered_runs.empty());

  // Recovery bounds the control-quality hit: IAE within 2x of clean.
  const auto* clean_iae = clean_report.merged.find_stats("campaign.iae");
  const auto* fault_iae = report.merged.find_stats("campaign.iae");
  ASSERT_NE(clean_iae, nullptr);
  ASSERT_NE(fault_iae, nullptr);
  EXPECT_GT(clean_iae->mean(), 0.0);
  EXPECT_LT(fault_iae->mean(), 2.0 * clean_iae->mean());

  // The JSON artifact names the fault sites and the scenario stats.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"serial.pil_rs232.a2b\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"campaign.iae\""), std::string::npos);
  EXPECT_NE(json.find("\"unrecovered\":0"), std::string::npos);
}

TEST(FaultCampaignTest, SingleRunReplaysInsideAndOutsideCampaign) {
  // Replaying run #2 of a campaign in isolation (one injector with the
  // campaign's run seed) reproduces the exact per-site fault counts its
  // run artifact recorded.
  CampaignOptions opts;
  opts.seed = 13;
  opts.runs = 3;
  opts.plan = FaultPlan::defaults().scaled(2.0);
  const std::filesystem::path dir = "fault_test_tmp/replay";
  std::filesystem::remove_all(dir);
  (void)run_campaign(opts, servo_pil_scenario(0.06), dir.string());
  evidence::EvidenceReader run2;
  const std::string artifact = (dir / evidence::run_artifact_filename(2));
  ASSERT_EQ(run2.parse_file(artifact), evidence::Status::kOk) << run2.error();

  FaultInjector replay(run_seed(opts.seed, 2), opts.plan);
  trace::MetricsRegistry metrics;
  obs::HealthReport health;
  RunContext ctx{2, replay.seed(), replay, metrics, health};
  (void)servo_pil_scenario(0.06)(ctx);
  ASSERT_FALSE(replay.sites().empty());
  for (const auto& [name, site] : replay.sites()) {
    const auto* in_campaign =
        run2.metrics().find_counter("fault." + name + ".injected");
    ASSERT_NE(in_campaign, nullptr) << name;
    EXPECT_EQ(in_campaign->value, site.injected()) << name;
  }
}

}  // namespace
}  // namespace iecd::fault
