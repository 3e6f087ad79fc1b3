// Co-simulation master suite (src/cosim/): step-negotiation exactness with
// scripted components under adversarial registration/readiness orders,
// shared-bus delivery timing, 16-node farm behaviour (clean, killed,
// degraded, bit-exact golden, rejected config), and campaign/evidence
// byte-identity across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <fstream>
#include <limits>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/engine.hpp"
#include "core/distributed.hpp"
#include "cosim/bus.hpp"
#include "cosim/farm.hpp"
#include "cosim/master.hpp"
#include "cosim/nodes.hpp"
#include "cosim/topology.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/health_report.hpp"
#include "obs/monitor.hpp"

#include "golden/campaign_reports.inc"

namespace iecd::cosim {
namespace {

namespace fs = std::filesystem;

fs::path scratch_dir(const std::string& name) {
  fs::path dir = fs::path("cosim_test_tmp") / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

/// Scripted component: a fixed list of event times; executing an event
/// appends (name, time) to the shared trace.
class ScriptedComponent : public Component {
 public:
  ScriptedComponent(std::string name, std::vector<sim::SimTime> events,
                    std::vector<std::pair<std::string, sim::SimTime>>* trace)
      : name_(std::move(name)), events_(std::move(events)), trace_(trace) {}

  const std::string& name() const override { return name_; }
  sim::SimTime horizon() const override {
    return next_ < events_.size() ? events_[next_] : sim::kNever;
  }
  void advance_to(sim::SimTime t) override {
    ++advance_calls_;
    while (next_ < events_.size() && events_[next_] <= t) {
      trace_->push_back({name_, events_[next_]});
      ++next_;
    }
    now_ = t;
  }
  std::uint64_t events_executed() const override { return next_; }

  sim::SimTime now() const { return now_; }
  std::uint64_t advance_calls() const { return advance_calls_; }

 private:
  std::string name_;
  std::vector<sim::SimTime> events_;
  std::vector<std::pair<std::string, sim::SimTime>>* trace_;
  std::size_t next_ = 0;
  sim::SimTime now_ = 0;
  std::uint64_t advance_calls_ = 0;
};

// ------------------------------------------------------------------ master

TEST(CosimMaster, NegotiatesGlobalMinimumHorizon) {
  std::vector<std::pair<std::string, sim::SimTime>> trace;
  ScriptedComponent a("a", {10, 30, 50}, &trace);
  ScriptedComponent b("b", {20, 30, 70}, &trace);
  Master master;
  master.add(a);
  master.add(b);
  const MasterStats stats = master.run_until(100);

  // Events execute in global time order; the same-boundary tie at t=30
  // resolves by registration order (a before b).
  const std::vector<std::pair<std::string, sim::SimTime>> expected = {
      {"a", 10}, {"b", 20}, {"a", 30}, {"b", 30}, {"a", 50}, {"b", 70}};
  EXPECT_EQ(trace, expected);
  EXPECT_EQ(stats.negotiations, 5u);  // boundaries 10, 20, 30, 50, 70
  EXPECT_EQ(stats.events_executed, 6u);
  EXPECT_EQ(a.now(), 100);
  EXPECT_EQ(b.now(), 100);
}

TEST(CosimMaster, LazySkipOnlyAdvancesDueComponents) {
  std::vector<std::pair<std::string, sim::SimTime>> trace;
  ScriptedComponent busy("busy", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, &trace);
  ScriptedComponent idle("idle", {1000}, &trace);
  Master master;
  master.add(busy);
  master.add(idle);
  master.run_until(100);
  // idle was never due inside the loop; its only advance is the end drain.
  EXPECT_EQ(idle.advance_calls(), 1u);
  EXPECT_EQ(idle.now(), 100);
  EXPECT_EQ(busy.advance_calls(), 11u);  // 10 boundaries + drain
}

TEST(CosimMaster, AdversarialRegistrationOrdersYieldIdenticalTraces) {
  // Randomized readiness patterns: K trials of 4 components with random
  // (unique) event times, each executed under every registration
  // permutation of a random shuffle — the executed trace must be the
  // global time-ordered event list every time.
  std::mt19937 rng(20260808u);
  for (int trial = 0; trial < 12; ++trial) {
    // Unique times 1..200, partitioned round-robin after a shuffle.
    std::vector<sim::SimTime> times(200);
    for (std::size_t i = 0; i < times.size(); ++i) {
      times[i] = static_cast<sim::SimTime>(i + 1);
    }
    std::shuffle(times.begin(), times.end(), rng);
    const std::size_t kComponents = 4;
    std::vector<std::vector<sim::SimTime>> events(kComponents);
    const std::size_t per = 8;
    for (std::size_t c = 0; c < kComponents; ++c) {
      events[c].assign(times.begin() + static_cast<std::ptrdiff_t>(c * per),
                       times.begin() +
                           static_cast<std::ptrdiff_t>((c + 1) * per));
      std::sort(events[c].begin(), events[c].end());
    }

    // Reference: the global time-sorted merge (times are unique, so the
    // order is total and registration cannot matter).
    std::vector<std::pair<std::string, sim::SimTime>> expected;
    for (std::size_t c = 0; c < kComponents; ++c) {
      for (const sim::SimTime t : events[c]) {
        expected.push_back({'c' + std::to_string(c), t});
      }
    }
    std::sort(expected.begin(), expected.end(),
              [](const auto& x, const auto& y) { return x.second < y.second; });

    std::vector<std::size_t> order(kComponents);
    for (std::size_t i = 0; i < kComponents; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    do {
      std::vector<std::pair<std::string, sim::SimTime>> trace;
      std::vector<std::unique_ptr<ScriptedComponent>> comps(kComponents);
      for (std::size_t c = 0; c < kComponents; ++c) {
        comps[c] = std::make_unique<ScriptedComponent>(
            'c' + std::to_string(c), events[c], &trace);
      }
      Master master;
      for (const std::size_t c : order) master.add(*comps[c]);
      master.run_until(300);
      ASSERT_EQ(trace, expected) << "trial " << trial;
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

// ------------------------------------------------------------- shared bus

TEST(CosimBus, DeliversAtExactWireTime) {
  SharedCanBus bus("can0", 500000);
  std::vector<std::pair<std::uint32_t, sim::SimTime>> deliveries;
  bus.attach_model_port("sink", [&](const sim::CanFrame& frame,
                                    sim::SimTime when) {
    deliveries.push_back({frame.id, when});
  });
  TrafficGenNode::Config traffic;
  traffic.frames_per_s = 1000.0;
  TrafficGenNode gen("gen", traffic, bus);

  Master master;
  master.add_coupling(bus);
  master.add(gen);
  master.run_until(sim::from_seconds(0.0105));

  ASSERT_EQ(deliveries.size(), 10u);
  const sim::SimTime wire = bus.can().frame_time(8);  // 8-byte chatter
  for (std::size_t k = 0; k < deliveries.size(); ++k) {
    EXPECT_EQ(deliveries[k].first, kChatterFrameId);
    // Send at (k+1) ms on an idle bus; delivery exactly one wire time
    // later, negotiated across the component boundary.
    EXPECT_EQ(deliveries[k].second,
              sim::milliseconds(static_cast<sim::SimTime>(k) + 1) + wire)
        << "frame " << k;
  }
  EXPECT_EQ(gen.sent(), 10u);
  EXPECT_EQ(bus.can().stats().frames_delivered, 10u);
}

// ------------------------------------------------------------------- farm

FarmConfig small_farm(std::size_t servos, double duration) {
  FarmConfig cfg;
  cfg.servo_count = servos;
  cfg.duration_s = duration;
  cfg.traffic_frames_per_s = 300.0;
  return cfg;
}

TEST(CosimFarm, CleanSixteenNodeFarmSettlesEveryServo) {
  const FarmConfig cfg = small_farm(15, 0.4);  // 15 servos + supervisor
  ServoFarm farm(make_farm_topology(cfg),
                 {cfg.duration_s, cfg.settle_tolerance, nullptr, nullptr});
  const FarmResult r = farm.run();
  EXPECT_TRUE(r.recovered);
  EXPECT_EQ(r.nodes.size(), 15u);
  EXPECT_EQ(r.killed_count, 0u);
  EXPECT_EQ(r.stale_count, 0u);
  for (const FarmNodeResult& n : r.nodes) {
    EXPECT_TRUE(n.settled) << n.name << " speed " << n.speed;
    EXPECT_NEAR(n.speed, 100.0, 5.0) << n.name;
    EXPECT_GT(n.control_ticks, 300u) << n.name;
    EXPECT_GT(n.status_frames, 20u) << n.name;
  }
  EXPECT_EQ(r.commands_sent, 40u);  // every 10 ms over 0.4 s
  EXPECT_GT(r.statuses_seen, 400u);
  EXPECT_GT(r.frames_delivered, 500u);
  EXPECT_GT(r.bus_utilisation, 0.05);
}

TEST(CosimFarm, RunIsDeterministic) {
  const FarmConfig cfg = small_farm(8, 0.3);
  auto run_once = [&] {
    ServoFarm farm(make_farm_topology(cfg),
                   {cfg.duration_s, cfg.settle_tolerance, nullptr, nullptr});
    return farm.run();
  };
  const FarmResult a = run_once();
  const FarmResult b = run_once();
  EXPECT_EQ(a.mean_abs_error, b.mean_abs_error);  // bitwise
  EXPECT_EQ(a.frames_delivered, b.frames_delivered);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.negotiations, b.negotiations);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].speed, b.nodes[i].speed) << a.nodes[i].name;
    EXPECT_EQ(a.nodes[i].control_ticks, b.nodes[i].control_ticks);
  }
}

TEST(CosimFarm, KilledNodesAreDetectedStale) {
  fault::FaultPlan plan;
  plan.node_kill_rate = 1.0;  // every node dies mid-run
  fault::FaultInjector injector(42, plan);
  const FarmConfig cfg = small_farm(6, 0.4);
  ServoFarm farm(make_farm_topology(cfg),
                 {cfg.duration_s, cfg.settle_tolerance, &injector, nullptr});
  const FarmResult r = farm.run();
  EXPECT_EQ(r.killed_count, 6u);
  EXPECT_EQ(r.stale_count, 6u);
  EXPECT_TRUE(r.recovered);  // all kills detected, no alive node misbehaved
  for (const FarmNodeResult& n : r.nodes) {
    EXPECT_TRUE(n.killed) << n.name;
    EXPECT_TRUE(n.stale) << n.name;
    // Control stopped partway: strictly fewer ticks than a full run.
    EXPECT_LT(n.control_ticks, 350u) << n.name;
  }
  EXPECT_EQ(injector.find_site("cosim.servo0")->injected(), 1u);
}

TEST(CosimFarm, DegradedNodesRunSlowerButStillSettle) {
  fault::FaultPlan plan;
  plan.node_degrade_rate = 1.0;
  plan.node_degrade_factor = 2.0;
  fault::FaultInjector injector(7, plan);
  const FarmConfig cfg = small_farm(4, 0.6);
  ServoFarm farm(make_farm_topology(cfg),
                 {cfg.duration_s, cfg.settle_tolerance, &injector, nullptr});
  const FarmResult r = farm.run();
  EXPECT_EQ(r.degraded_count, 4u);
  EXPECT_EQ(r.killed_count, 0u);
  EXPECT_TRUE(r.recovered);
  for (const FarmNodeResult& n : r.nodes) {
    EXPECT_TRUE(n.degraded) << n.name;
    EXPECT_TRUE(n.settled) << n.name << " speed " << n.speed;
    // Doubled period: roughly half the control ticks of a healthy node.
    EXPECT_LT(n.control_ticks, 350u) << n.name;
    EXPECT_GT(n.control_ticks, 250u) << n.name;
  }
}

TEST(CosimFarm, PerNodeMonitorsFoldIntoHealthReport) {
  obs::MonitorHub hub;
  const FarmConfig cfg = small_farm(3, 0.2);
  ServoFarm farm(make_farm_topology(cfg),
                 {cfg.duration_s, cfg.settle_tolerance, nullptr, &hub});
  farm.run();
  const obs::HealthReport report = hub.report("cosim");
  for (int i = 0; i < 3; ++i) {
    const std::string name = "cosim.servo" + std::to_string(i) + ".loop";
    const auto* monitor = hub.find_timing(name);
    ASSERT_NE(monitor, nullptr) << name;
    EXPECT_GT(monitor->activations(), 150u) << name;
    EXPECT_EQ(monitor->deadline_misses(), 0u) << name;
    EXPECT_TRUE(report.tasks.count(name)) << name;
  }
  EXPECT_GT(hub.polls(), 10u);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Golden of the clean 15-servo farm with supervisor and chatter, as bit
// patterns.  Any change to the node's speed loop, the plant, the bus or the
// master's negotiation moves at least one of them.
TEST(FarmGolden, FifteenServosSupervisorAndChatter) {
  const FarmConfig cfg = small_farm(15, 0.4);
  ServoFarm farm(make_farm_topology(cfg),
                 {cfg.duration_s, cfg.settle_tolerance, nullptr, nullptr});
  const FarmResult r = farm.run();
  // Every node sees the same broadcast set-point at the same instant, so
  // all fifteen end at the same speed: 100.08919720060113 rad/s.
  ASSERT_EQ(r.nodes.size(), 15u);
  for (const FarmNodeResult& n : r.nodes) {
    EXPECT_EQ(bits(n.speed), 0x405905b5682cde81u)
        << n.name << " " << std::hexfloat << n.speed;
  }
  // 0.08919720060113434 rad/s
  EXPECT_EQ(bits(r.mean_abs_error), 0x3fb6d5a0b37a0400u)
      << std::hexfloat << r.mean_abs_error;
  EXPECT_EQ(r.frames_delivered, 743u);
  EXPECT_EQ(r.negotiations, 2843u);
}

// Probing every node's true speed and reading its decoder's position
// register every 37 us (mostly between the instants the node's own code
// touches the plant) must not move any trajectory: the plant answers from
// an uncommitted step.  Only the negotiation count may change.
TEST(CosimFarm, PlantProbesLeaveTheFarmBitIdentical) {
  const FarmConfig cfg = small_farm(3, 0.2);
  const auto run = [&](bool observe) {
    ServoFarm farm(make_farm_topology(cfg),
                   {cfg.duration_s, cfg.settle_tolerance, nullptr, nullptr});
    if (observe) {
      for (const auto& node : farm.servos()) {
        ServoNode* n = node.get();
        n->world().queue().schedule_every(sim::microseconds(37), [n] {
          n->current_speed();
          n->decoder().position();
        });
      }
    }
    return farm.run();
  };
  const FarmResult plain = run(false);
  const FarmResult observed = run(true);
  ASSERT_EQ(plain.nodes.size(), observed.nodes.size());
  for (std::size_t i = 0; i < plain.nodes.size(); ++i) {
    EXPECT_EQ(bits(plain.nodes[i].speed), bits(observed.nodes[i].speed))
        << plain.nodes[i].name;
    EXPECT_EQ(plain.nodes[i].control_ticks, observed.nodes[i].control_ticks);
  }
  EXPECT_EQ(bits(plain.mean_abs_error), bits(observed.mean_abs_error));
  EXPECT_EQ(plain.frames_delivered, observed.frames_delivered);
  EXPECT_EQ(plain.statuses_seen, observed.statuses_seen);
}

// The plant layer's work as exact counts: map steps taken (committed or
// not) and maps built on demand, summed over the fifteen motors of the
// golden farm.
TEST(CosimFarm, PlantMapStepsArePinned) {
  const FarmConfig cfg = small_farm(15, 0.4);
  ServoFarm farm(make_farm_topology(cfg),
                 {cfg.duration_s, cfg.settle_tolerance, nullptr, nullptr});
  farm.run();
  std::uint64_t steps = 0;
  std::uint64_t misses = 0;
  for (const auto& node : farm.servos()) {
    steps += node->motor().map_steps();
    misses += node->motor().map_misses();
  }
  // Per motor: 400 commits (each 1 ms duty latch, or 1 ms after the last
  // commit) and 350 reads off a commit instant (the control tick's reads
  // before the set-point arrives fall on one).
  EXPECT_EQ(steps, 11250u);
  EXPECT_EQ(misses, 30u);  // two step lengths per motor besides 1 ms
}

// A servo whose decoder bean rejects its configuration stops the farm at
// construction: with encoder_lines = 0 the bean would keep its default
// 100 lines while the speed gain divides by zero, and no motor turns.
TEST(NodeConfigRejection, FarmRejectsZeroEncoderLines) {
  FarmConfig cfg = small_farm(2, 0.1);
  cfg.servo.encoder_lines = 0;
  try {
    ServoFarm farm(make_farm_topology(cfg),
                   {cfg.duration_s, cfg.settle_tolerance, nullptr, nullptr});
    FAIL() << "encoder_lines = 0 built a farm";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("encoder_lines"), std::string::npos)
        << e.what();
  }
}

// A non-finite gain stops the farm at construction, before any ISR could
// turn a NaN duty into a PWM register write.
TEST(NodeConfigRejection, FarmRejectsNonFiniteGain) {
  FarmConfig cfg = small_farm(2, 0.1);
  cfg.servo.kp = std::numeric_limits<double>::quiet_NaN();
  try {
    ServoFarm farm(make_farm_topology(cfg),
                   {cfg.duration_s, cfg.settle_tolerance, nullptr, nullptr});
    FAIL() << "kp = NaN built a farm";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("kp"), std::string::npos)
        << e.what();
  }
}

// The supervisor's set-point rules.  Each bad field is reported as one
// diagnostic, and the farm refuses to build, so no command is ever put on
// the wire (a zero period would loop forever in advance_to()).
struct SupervisorField {
  const char* component;
  std::function<void(FarmConfig&)> spoil;
  const char* variant = "";  ///< tells apart cases of one component
};

void PrintTo(const SupervisorField& field, std::ostream* os) {
  *os << field.component;
  if (*field.variant != '\0') *os << " (" << field.variant << ")";
}

class SupervisorConfigRejects
    : public ::testing::TestWithParam<SupervisorField> {};

TEST_P(SupervisorConfigRejects, WithOneDiagnosticAndTheFarmThrows) {
  FarmConfig cfg = small_farm(2, 0.1);
  GetParam().spoil(cfg);
  const Topology topo = make_farm_topology(cfg);
  const auto sup = std::find_if(
      topo.nodes.begin(), topo.nodes.end(),
      [](const NodeSpec& n) { return n.kind == NodeKind::kSupervisor; });
  ASSERT_NE(sup, topo.nodes.end());
  const auto diags = SupervisorNode::validate(sup->supervisor);
  ASSERT_EQ(diags.size(), 1u) << diags.to_string();
  EXPECT_EQ(diags.items()[0].component, GetParam().component);
  try {
    ServoFarm farm(topo, {cfg.duration_s, cfg.settle_tolerance, nullptr,
                          nullptr});
    FAIL() << "a bad supervisor config built a farm";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().component),
              std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fields, SupervisorConfigRejects,
    ::testing::Values(
        SupervisorField{"setpoint",
                        [](FarmConfig& c) {
                          c.setpoint = std::numeric_limits<double>::quiet_NaN();
                        }},
        SupervisorField{"setpoint", [](FarmConfig& c) { c.setpoint = -1.0; },
                        "negative"},
        SupervisorField{"setpoint", [](FarmConfig& c) { c.setpoint = 256.0; },
                        "above_u16"},
        SupervisorField{"setpoint_time",
                        [](FarmConfig& c) {
                          c.setpoint_time =
                              std::numeric_limits<double>::infinity();
                        }},
        SupervisorField{"command_period_s",
                        [](FarmConfig& c) { c.command_period_s = 0.0; },
                        "zero"},
        SupervisorField{"command_period_s",
                        [](FarmConfig& c) {
                          c.command_period_s =
                              std::numeric_limits<double>::quiet_NaN();
                        }}),
    [](const ::testing::TestParamInfo<SupervisorField>& info) {
      std::string name = info.param.component;
      if (*info.param.variant != '\0') {
        name += std::string("_") + info.param.variant;
      }
      return name;
    });

TEST(SupervisorConfigValidation, FullScaleSetpointIsAccepted) {
  SupervisorNode::Config c;
  c.setpoint = 65535.0 / 256.0;
  c.setpoint_time = 0.0;
  c.command_period_s = 1e-9;
  const auto diags = SupervisorNode::validate(c);
  EXPECT_TRUE(diags.empty()) << diags.to_string();
}

// The chatter rate rule.  A bad rate is one diagnostic, and both the farm
// and the CAN rig refuse to run it: an infinite or over-fast rate would
// round the send interval to 0 ns and loop forever in advance_to(), and a
// NaN or negative rate would silently mean no traffic.
struct TrafficRate {
  const char* name;
  double frames_per_s;
};

void PrintTo(const TrafficRate& rate, std::ostream* os) { *os << rate.name; }

class TrafficConfigRejects : public ::testing::TestWithParam<TrafficRate> {};

TEST_P(TrafficConfigRejects, WithOneDiagnosticAndTheFarmAndRigThrow) {
  TrafficGenNode::Config traffic;
  traffic.frames_per_s = GetParam().frames_per_s;
  const auto diags = TrafficGenNode::validate(traffic);
  ASSERT_EQ(diags.size(), 1u) << diags.to_string();
  EXPECT_EQ(diags.items()[0].component, "frames_per_s");

  FarmConfig cfg = small_farm(2, 0.1);
  cfg.traffic_frames_per_s = GetParam().frames_per_s;
  try {
    ServoFarm farm(make_farm_topology(cfg),
                   {cfg.duration_s, cfg.settle_tolerance, nullptr, nullptr});
    FAIL() << "a bad chatter rate built a farm";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("frames_per_s"), std::string::npos)
        << e.what();
  }

  core::DistributedConfig rig;
  rig.duration_s = 0.1;
  rig.background_frames_per_s = GetParam().frames_per_s;
  try {
    core::run_distributed_servo(rig);
    FAIL() << "a bad chatter rate ran the rig";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("frames_per_s"), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fields, TrafficConfigRejects,
    ::testing::Values(
        TrafficRate{"nan", std::numeric_limits<double>::quiet_NaN()},
        TrafficRate{"inf", std::numeric_limits<double>::infinity()},
        TrafficRate{"negative", -300.0},
        TrafficRate{"sub_ns_interval", 3e9}),
    [](const ::testing::TestParamInfo<TrafficRate>& info) {
      return std::string(info.param.name);
    });

TEST(TrafficConfigValidation, SilenceAndAOneNanosecondIntervalAreAccepted) {
  for (double rate : {0.0, 300.0, 1e9}) {
    TrafficGenNode::Config c;
    c.frames_per_s = rate;
    const auto diags = TrafficGenNode::validate(c);
    EXPECT_TRUE(diags.empty()) << rate << ": " << diags.to_string();
  }
}

// The topology rules of the farm and the rig.  Each bad input stops the
// run at construction with a diagnostic naming the field: a non-finite
// duration would reach llround() in sim::from_seconds, a NaN setpoint_time
// would never step the set-point (t >= NaN is false), a status ID past
// 11 bits aliases the command ID under the servos' 0x7FF acceptance mask,
// and classic CAN runs at no bit rate of 0 or above 1 Mbit/s.
struct TopologyRule {
  const char* name;
  const char* component;
  std::function<void()> run;
};

void PrintTo(const TopologyRule& rule, std::ostream* os) { *os << rule.name; }

void build_farm(std::size_t servos, double duration,
                std::uint32_t bitrate = 500000) {
  FarmConfig cfg = small_farm(servos, duration);
  cfg.bitrate_bps = bitrate;
  ServoFarm farm(make_farm_topology(cfg),
                 {duration, cfg.settle_tolerance, nullptr, nullptr});
}

void run_rig(double duration, double setpoint_time,
             std::uint32_t bitrate = 500000) {
  core::DistributedConfig rig;
  rig.duration_s = duration;
  rig.setpoint_time = setpoint_time;
  rig.can_bitrate = bitrate;
  core::run_distributed_servo(rig);
}

class TopologyRejects : public ::testing::TestWithParam<TopologyRule> {};

TEST_P(TopologyRejects, NamingTheField) {
  try {
    GetParam().run();
    FAIL() << GetParam().name << " ran";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().component),
              std::string::npos)
        << e.what();
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

INSTANTIATE_TEST_SUITE_P(
    Rules, TopologyRejects,
    ::testing::Values(
        TopologyRule{"farm_duration_nan", "duration_s",
                     [] { build_farm(2, kNaN); }},
        TopologyRule{"farm_duration_inf", "duration_s",
                     [] { build_farm(2, kInf); }},
        TopologyRule{"farm_duration_negative", "duration_s",
                     [] { build_farm(2, -0.1); }},
        TopologyRule{"farm_status_ids_past_11_bits", "servo_count",
                     [] { build_farm(kMaxServos + 1, 0.0); }},
        TopologyRule{"farm_bitrate_zero", "can0.bitrate_bps",
                     [] { build_farm(2, 0.0, 0); }},
        TopologyRule{"farm_bitrate_above_1M", "can0.bitrate_bps",
                     [] { build_farm(2, 0.0, 1000001); }},
        TopologyRule{"rig_duration_nan", "duration_s",
                     [] { run_rig(kNaN, 0.05); }},
        TopologyRule{"rig_duration_inf", "duration_s",
                     [] { run_rig(kInf, 0.05); }},
        TopologyRule{"rig_duration_negative", "duration_s",
                     [] { run_rig(-0.1, 0.05); }},
        TopologyRule{"rig_setpoint_time_nan", "setpoint_time",
                     [] { run_rig(0.01, kNaN); }},
        TopologyRule{"rig_setpoint_time_inf", "setpoint_time",
                     [] { run_rig(0.01, kInf); }},
        TopologyRule{"rig_bitrate_zero", "can_bitrate",
                     [] { run_rig(0.0, 0.05, 0); }},
        TopologyRule{"rig_bitrate_above_1M", "can_bitrate",
                     [] { run_rig(0.0, 0.05, 2000000); }}),
    [](const ::testing::TestParamInfo<TopologyRule>& info) {
      return std::string(info.param.name);
    });

TEST(TopologyRules, ZeroDurationAndTheLastElevenBitStatusIdAreAccepted) {
  EXPECT_EQ(kStatusFrameBase + kMaxServos - 1, 0x7FFu);
  EXPECT_NO_THROW(build_farm(kMaxServos, 0.0));
  EXPECT_NO_THROW(run_rig(0.0, 0.05));
}

TEST(TopologyRules, BitRatesFromOneBitToOneMegabitAreAccepted) {
  for (std::uint32_t bitrate : {1u, 125000u, 1000000u}) {
    EXPECT_TRUE(SharedCanBus::validate(bitrate, "bitrate_bps").empty());
    EXPECT_NO_THROW(build_farm(2, 0.0, bitrate)) << bitrate;
    EXPECT_NO_THROW(run_rig(0.0, 0.05, bitrate)) << bitrate;
  }
}

TEST(CosimTopology, UnknownBusAttachmentThrows) {
  Topology topo;
  topo.buses.push_back(BusSpec{"can0", 500000});
  NodeSpec spec;
  spec.name = "servo0";
  spec.kind = NodeKind::kServo;
  spec.bus = "can9";
  topo.nodes.push_back(spec);
  EXPECT_THROW(ServoFarm(topo, {0.1, 0.05, nullptr, nullptr}),
               std::invalid_argument);
}

// -------------------------------------------------------------- campaigns

TEST(CosimCampaign, DefaultPlanFarmRecoversEveryRun) {
  const FarmConfig cfg = small_farm(15, 0.3);
  fault::CampaignOptions options;
  options.name = "cosim_farm";
  options.seed = 2026;
  options.runs = 4;
  options.threads = 2;
  options.plan = fault::FaultPlan::defaults();
  campaign::EngineOptions eo;
  eo.campaign = options;
  const fault::CampaignReport report =
      campaign::CampaignEngine(eo).run(make_farm_scenario(cfg)).report;
  EXPECT_EQ(report.unrecovered, 0u) << report.summary();
  EXPECT_GT(report.faults_injected, 0u);
  // The farm-specific sites appear in the merged per-site counters.
  EXPECT_TRUE(report.merged.find_counter("fault.can.can0.injected") !=
                  nullptr ||
              report.merged.find_counter("fault.can.can0.opportunities") !=
                  nullptr);
}

TEST(CosimCampaign, ReportAndEvidenceAreThreadCountInvariant) {
  const FarmConfig cfg = small_farm(4, 0.2);
  auto campaign_options = [&](std::size_t threads) {
    fault::CampaignOptions options;
    options.name = "cosim_ident";
    options.seed = 99;
    options.runs = 6;
    options.threads = threads;
    options.plan = fault::FaultPlan::defaults();
    return options;
  };

  std::string ref_manifest;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const fs::path dir = scratch_dir("ident_t" + std::to_string(threads));
    campaign::EngineOptions eo;
    eo.campaign = campaign_options(threads);
    eo.evidence_dir = dir.string();
    eo.write_run_artifacts = false;
    campaign::CampaignEngine engine(eo);
    const campaign::EngineResult er = engine.run(make_farm_scenario(cfg));

    EXPECT_EQ(er.report.to_json(), golden::kCosimIdentJson)
        << "campaign JSON differs at threads=" << threads;
    const std::string manifest = slurp(er.evidence.manifest_path);
    if (threads == 1) {
      ref_manifest = manifest;
      EXPECT_FALSE(ref_manifest.empty());
    } else {
      EXPECT_EQ(manifest, ref_manifest)
          << "evidence MANIFEST differs at threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace iecd::cosim
