// Online timing analysis: latency-histogram percentiles against exact
// sorted-vector references on seeded distributions, the deadline==response
// boundary, monitor merge determinism, flight-recorder trigger
// ordering, the allocation-free record-path guarantee, and the end-to-end
// deadline-miss injection that must yield a post-mortem dump plus a health
// report naming the offending task.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <vector>

#include "core/case_study.hpp"
#include "exec/sweep.hpp"
#include "obs/health_report.hpp"
#include "obs/monitor.hpp"
#include "obs/watermark.hpp"
#include "sim/world.hpp"
#include "trace/trace.hpp"

// Shared with comm_fastpath_test.cpp: the one global counting operator new
// the binary is allowed to define.
namespace iecd::testhooks {
extern std::atomic<std::uint64_t> g_allocations;
}  // namespace iecd::testhooks

namespace iecd {
namespace {

// ------------------------------------------------ histogram vs sorted ref

/// Exact linear-rank percentile of \p sorted (ascending, non-empty): the
/// reference the histogram's interpolated answer is held against.
double exact_percentile(const std::vector<double>& sorted, double p) {
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  if (idx + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(idx);
  return sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac;
}

void expect_percentiles_close(const util::LatencyHistogram& h,
                              std::vector<double> samples,
                              const char* label) {
  std::sort(samples.begin(), samples.end());
  const double tol = util::LatencyHistogram::kRelativeErrorBound;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = exact_percentile(samples, p);
    const double approx = h.percentile(p);
    // The answer lies in the bucket containing the rank; the rank's true
    // order statistic shares that bucket or an adjacent one, and a bucket
    // one octave up is twice as wide relative to the reference — hence two
    // sub-bucket widths of the larger value.
    const double bound =
        2.0 * tol * std::max(std::abs(exact), std::abs(approx)) + 1e-9;
    EXPECT_NEAR(approx, exact, bound) << label << " p" << p;
  }
  EXPECT_DOUBLE_EQ(h.min(), samples.front()) << label;
  EXPECT_DOUBLE_EQ(h.max(), samples.back()) << label;
  EXPECT_EQ(h.count(), samples.size()) << label;
}

TEST(LatencyHistogram, PercentilesMatchSortedReferenceUniform) {
  std::mt19937 rng(12345);
  std::uniform_real_distribution<double> dist(5.0, 900.0);
  util::LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double x = dist(rng);
    samples.push_back(x);
    h.record(x);
  }
  expect_percentiles_close(h, samples, "uniform");
}

TEST(LatencyHistogram, PercentilesMatchSortedReferenceLognormal) {
  std::mt19937 rng(777);
  std::lognormal_distribution<double> dist(3.0, 1.2);
  util::LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double x = dist(rng);
    samples.push_back(x);
    h.record(x);
  }
  expect_percentiles_close(h, samples, "lognormal");
}

TEST(LatencyHistogram, PercentilesMatchSortedReferenceBimodal) {
  // Fast path vs slow path: the shape deadline analysis actually meets.
  std::mt19937 rng(2024);
  std::normal_distribution<double> fast(50.0, 2.0);
  std::normal_distribution<double> slow(800.0, 30.0);
  std::bernoulli_distribution pick(0.9);
  util::LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double x = std::max(0.1, pick(rng) ? fast(rng) : slow(rng));
    samples.push_back(x);
    h.record(x);
  }
  expect_percentiles_close(h, samples, "bimodal");
}

TEST(LatencyHistogram, SparseSamplesInterpolateBetweenBuckets) {
  // A rank between two samples in different buckets interpolates between
  // their estimates, so every percentile of a few spread-out samples stays
  // within one sub-bucket width of the exact one.
  const std::vector<std::vector<double>> sets = {
      {10.0, 20.0}, {3.0, 50.0, 700.0, 701.0, 9000.0}, {0.0, 1.0, 1.0, 64.0}};
  for (const auto& set : sets) {
    util::LatencyHistogram h;
    for (double x : set) h.record(x);
    std::vector<double> sorted = set;
    std::sort(sorted.begin(), sorted.end());
    for (int p = 1; p < 100; ++p) {
      const double exact = exact_percentile(sorted, p);
      EXPECT_NEAR(h.percentile(p), exact,
                  exact * util::LatencyHistogram::kRelativeErrorBound)
          << set.size() << " samples, p" << p;
    }
  }
}

TEST(LatencyHistogram, ExactEdgesAndSmallCounts) {
  util::LatencyHistogram h;
  EXPECT_EQ(h.percentile(50.0), 0.0);  // empty
  h.record(42.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 42.0);
  h.record(0.0);  // zero lands in the underflow bucket, min stays exact
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 42.0);
  EXPECT_EQ(h.count(), 2u);
}

TEST(LatencyHistogram, MergeEqualsSequentialFeed) {
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> dist(0.5, 5000.0);
  util::LatencyHistogram a, b, both;
  for (int i = 0; i < 5000; ++i) {
    const double x = dist(rng);
    (i % 2 ? a : b).record(x);
    both.record(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.min(), both.min());
  EXPECT_DOUBLE_EQ(a.max(), both.max());
  for (double p : {1.0, 50.0, 90.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), both.percentile(p)) << "p" << p;
  }
}

// ------------------------------------------------------- timing monitors

TEST(TimingMonitor, DeadlineBoundaryIsMetExactly) {
  obs::TimingMonitor::Config config;
  config.period_s = 0.001;
  config.deadline_s = 0.001;  // 1 ms == 1000 us
  obs::TimingMonitor mon(config);
  // response == deadline exactly: met.
  EXPECT_FALSE(mon.record(0, 0, sim::from_seconds(0.001)));
  EXPECT_EQ(mon.deadline_misses(), 0u);
  // one nanosecond over: missed.
  EXPECT_TRUE(mon.record(sim::from_seconds(0.001), sim::from_seconds(0.001),
                         sim::from_seconds(0.002) + 1));
  EXPECT_EQ(mon.deadline_misses(), 1u);
  EXPECT_EQ(mon.last_miss_time(), sim::from_seconds(0.002) + 1);
  EXPECT_EQ(mon.activations(), 2u);
}

TEST(TimingMonitor, ResponseCountsQueueingDelayNotJustExecution) {
  obs::TimingMonitor::Config config;
  config.deadline_s = 0.0005;
  obs::TimingMonitor mon(config);
  // Raised at t=0, served 400us later for 200us: exec meets the budget,
  // response (600us) does not — the schedulability-analysis convention.
  const sim::SimTime start = sim::microseconds(400);
  const sim::SimTime end = sim::microseconds(600);
  EXPECT_TRUE(mon.record(0, start, end));
  EXPECT_DOUBLE_EQ(mon.exec_us().max(), 200.0);
  EXPECT_DOUBLE_EQ(mon.worst_response_us(), 600.0);
}

TEST(TimingMonitor, JitterTracksDeviationFromNominalPeriod) {
  obs::TimingMonitor::Config config;
  config.period_s = 0.001;
  obs::TimingMonitor mon(config);
  sim::SimTime t = 0;
  const sim::SimTime period = sim::from_seconds(0.001);
  for (int i = 0; i < 5; ++i) {
    mon.record(t, t, t + sim::microseconds(100));
    t += period;
  }
  // Perfectly periodic so far.
  EXPECT_DOUBLE_EQ(mon.jitter_us().max(), 0.0);
  // One activation lands 30 us late.
  mon.record(t + sim::microseconds(30), t + sim::microseconds(30),
             t + sim::microseconds(130));
  EXPECT_DOUBLE_EQ(mon.jitter_us().max(), 30.0);
  EXPECT_EQ(mon.jitter_us().count(), 5u);
}

TEST(TimingMonitor, MergeMatchesSequentialFeedAndResetClears) {
  obs::TimingMonitor::Config config;
  config.period_s = 0.001;
  config.deadline_s = 0.0012;
  std::mt19937 rng(4242);
  std::uniform_int_distribution<sim::SimTime> late(0, 500000);  // 0..500 us

  obs::TimingMonitor first(config), second(config), sequential(config);
  sim::SimTime t = 0;
  const sim::SimTime period = sim::from_seconds(0.001);
  std::vector<sim::SimTime> starts, ends;
  for (int i = 0; i < 400; ++i) {
    const sim::SimTime s = t + late(rng);
    starts.push_back(s);
    ends.push_back(s + sim::microseconds(700));
    t += period;
  }
  for (int i = 0; i < 400; ++i) {
    (i < 200 ? first : second).record(starts[i] - 100, starts[i], ends[i]);
    sequential.record(starts[i] - 100, starts[i], ends[i]);
  }
  first.merge(second);
  EXPECT_EQ(first.activations(), sequential.activations());
  EXPECT_EQ(first.deadline_misses(), sequential.deadline_misses());
  EXPECT_DOUBLE_EQ(first.worst_response_us(),
                   sequential.worst_response_us());
  for (double p : {50.0, 99.0}) {
    EXPECT_DOUBLE_EQ(first.response_us().percentile(p),
                     sequential.response_us().percentile(p));
  }
  // The merge seam drops exactly one jitter interval (run boundary).
  EXPECT_EQ(first.jitter_us().count() + 1, sequential.jitter_us().count());
}

TEST(WatermarkMonitor, TracksPeakLowMeanAndMerges) {
  obs::WatermarkMonitor a, b;
  a.update(3.0);
  a.update(9.0);
  a.update(1.0);
  EXPECT_DOUBLE_EQ(a.peak(), 9.0);
  EXPECT_DOUBLE_EQ(a.low(), 1.0);
  EXPECT_DOUBLE_EQ(a.current(), 1.0);
  b.update(20.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.peak(), 20.0);
  EXPECT_DOUBLE_EQ(a.low(), 1.0);
  EXPECT_EQ(a.samples(), 4u);
  // merge keeps THIS monitor's last observation as current.
  EXPECT_DOUBLE_EQ(a.current(), 1.0);
}

// -------------------------------------------------------- flight recorder

TEST(FlightRecorder, TriggersOrderedAndBounded) {
  constexpr std::size_t kMax = obs::FlightRecorder::kMaxDumps;
  obs::FlightRecorder recorder;
  recorder.trigger("deadline_miss", 100, "taskA");
  recorder.trigger("fifo_overflow", 200, "uart");
  for (std::size_t i = 2; i < kMax; ++i) {
    recorder.trigger("fifo_overflow", static_cast<sim::SimTime>(100 * (i + 1)));
  }
  recorder.trigger("deadline_miss", 5000, "taskB");  // beyond kMaxDumps

  ASSERT_EQ(recorder.dumps().size(), kMax);
  EXPECT_EQ(recorder.dumps()[0].trigger, "deadline_miss");
  EXPECT_EQ(recorder.dumps()[0].detail, "taskA");
  EXPECT_EQ(recorder.dumps()[0].ordinal, 1u);
  EXPECT_EQ(recorder.dumps()[1].trigger, "fifo_overflow");
  EXPECT_EQ(recorder.dumps()[1].ordinal, 2u);
  EXPECT_EQ(recorder.dumps().back().ordinal, kMax);
  EXPECT_EQ(recorder.suppressed(), 1u);
  EXPECT_EQ(recorder.triggers_total(), kMax + 1);
  EXPECT_EQ(recorder.trigger_counts().at("deadline_miss"), 2u);
}

TEST(FlightRecorder, CounterTriggersLatchAndFireOnIncrease) {
  obs::FlightRecorder recorder;
  std::uint64_t overruns = 5;  // pre-existing count must NOT trigger
  recorder.add_counter_trigger("uart_overrun",
                               [&overruns]() { return overruns; });
  recorder.poll(1000);
  EXPECT_TRUE(recorder.dumps().empty());
  overruns += 3;
  recorder.poll(2000);
  ASSERT_EQ(recorder.dumps().size(), 1u);
  EXPECT_EQ(recorder.dumps()[0].trigger, "uart_overrun");
  EXPECT_EQ(recorder.dumps()[0].detail, "+3");
  EXPECT_EQ(recorder.dumps()[0].time, 2000);
  recorder.poll(3000);  // no further increase, no further dump
  EXPECT_EQ(recorder.dumps().size(), 1u);
}

TEST(FlightRecorder, CapturesTrailingTraceEventsWithResolvedNames) {
  constexpr int kDepth = static_cast<int>(obs::FlightRecorder::kTrailDepth);
  trace::TraceRecorder rec(64);
  trace::TraceSession session(rec);
  for (int i = 0; i < kDepth + 6; ++i) {
    rec.instant("sim", "tick", "world", i * 100, i);
  }
  obs::FlightRecorder recorder;
  recorder.trigger("anomaly", 10000, "x");
  ASSERT_EQ(recorder.dumps().size(), 1u);
  const auto& events = recorder.dumps()[0].events;
  ASSERT_EQ(events.size(), obs::FlightRecorder::kTrailDepth);  // trailing only
  EXPECT_EQ(events.front().name, "tick");
  EXPECT_EQ(events.front().track, "world");
  EXPECT_EQ(events.front().value, 6.0);  // events 6..kDepth+5 remain
  EXPECT_EQ(events.back().value, kDepth + 5.0);
  // Dump strings survive the recorder being cleared.
  rec.clear();
  EXPECT_EQ(recorder.dumps()[0].events.front().category, "sim");
}

// ------------------------------------------------- hub, report, sweeps

TEST(MonitorHub, PollTracksQueueDepthAndStateProviderFillsDumps) {
  sim::World world;
  obs::MonitorHub hub;
  hub.timing("ctrl").record(0, 0, sim::microseconds(10));
  hub.arm(world, sim::milliseconds(1));
  // Keep some events pending so the depth probe sees a non-empty queue.
  world.queue().schedule_every(sim::milliseconds(10), [] {});
  world.run_for(sim::milliseconds(5));
  EXPECT_GE(hub.polls(), 4u);
  const obs::WatermarkMonitor* depth = hub.find_watermark("sim.event_queue.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GE(depth->peak(), 1.0);

  hub.flight().trigger("anomaly", world.now(), "detail");
  ASSERT_EQ(hub.flight().dumps().size(), 1u);
  const auto& state = hub.flight().dumps()[0].monitor_state;
  ASSERT_FALSE(state.empty());
  EXPECT_NE(state[0].find("ctrl"), std::string::npos);
}

TEST(HealthReport, MergePreservesPercentilesAndNamesOffenders) {
  auto make = [](int runs_seed) {
    obs::MonitorHub hub;
    obs::TimingMonitor::Config config;
    config.period_s = 0.001;
    config.deadline_s = 0.001;
    auto& mon = hub.timing("servo_step", config);
    std::mt19937 rng(runs_seed);
    std::uniform_int_distribution<sim::SimTime> exec_us(100, 900);
    sim::SimTime t = 0;
    for (int i = 0; i < 100; ++i) {
      mon.record(t, t, t + sim::microseconds(exec_us(rng)));
      t += sim::from_seconds(0.001);
    }
    return hub.report("unit");
  };
  obs::HealthReport merged = make(1);
  merged.merge(make(2));
  EXPECT_EQ(merged.runs, 2u);
  EXPECT_EQ(merged.tasks.at("servo_step").activations(), 200u);
  EXPECT_TRUE(merged.healthy());

  // An unhealthy report names the offending task in both renderings.
  obs::MonitorHub bad;
  obs::TimingMonitor::Config tight;
  tight.deadline_s = 0.0001;
  bad.timing("laggard", tight).record(0, 0, sim::milliseconds(1));
  bad.flight().trigger("deadline_miss", sim::milliseconds(1), "laggard");
  obs::HealthReport report = bad.report("unit");
  EXPECT_FALSE(report.healthy());
  EXPECT_EQ(report.deadline_misses(), 1u);
  EXPECT_NE(report.to_text().find("laggard"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"laggard\""), std::string::npos);
  EXPECT_NE(report.to_json().find("\"healthy\":false"), std::string::npos);
}

TEST(SweepRunner, HealthMergeIsThreadCountInvariant) {
  const auto scenario = [](std::size_t index, trace::MetricsRegistry& metrics,
                           obs::HealthReport& health) {
    obs::MonitorHub hub;
    obs::TimingMonitor::Config config;
    config.period_s = 0.001;
    config.deadline_s = 0.0008;
    auto& mon = hub.timing("task", config);
    std::mt19937 rng(static_cast<unsigned>(index) * 7919u + 13u);
    std::uniform_int_distribution<sim::SimTime> exec_ns(100000, 1000000);
    sim::SimTime t = 0;
    for (int i = 0; i < 50; ++i) {
      if (mon.record(t, t, t + exec_ns(rng))) {
        hub.flight().trigger("deadline_miss", t, "task");
      }
      t += sim::from_seconds(0.001);
    }
    metrics.counter("runs").value += 1;
    health = hub.report("sweep");
  };

  exec::SweepRunner sequential({1});
  exec::SweepRunner parallel({4});
  const auto a = sequential.run(8, exec::SweepRunner::HealthScenario(scenario));
  const auto b = parallel.run(8, exec::SweepRunner::HealthScenario(scenario));
  EXPECT_EQ(a.health.runs, 8u);
  EXPECT_EQ(a.health.to_json(), b.health.to_json());
  EXPECT_EQ(a.health.tasks.at("task").activations(), 400u);
  EXPECT_EQ(a.health.deadline_misses(), b.health.deadline_misses());
}

// ------------------------------------------------ allocation-free record

TEST(ObsRecordPath, RecordIsAllocationFree) {
  util::LatencyHistogram histogram;
  obs::WatermarkMonitor watermark;
  obs::TimingMonitor::Config config;
  config.period_s = 0.001;
  config.deadline_s = 0.002;
  obs::TimingMonitor monitor(config);

  // Warm-up (constructors above did all the allocating they ever will).
  monitor.record(0, 0, sim::microseconds(10));

  const std::uint64_t before = testhooks::g_allocations.load();
  sim::SimTime t = 0;
  for (int i = 0; i < 10000; ++i) {
    histogram.record(static_cast<double>(i % 997) + 0.5);
    watermark.update(static_cast<double>(i % 31));
    monitor.record(t, t + 1000, t + 500000);
    t += sim::from_seconds(0.001);
  }
  EXPECT_EQ(testhooks::g_allocations.load(), before)
      << "monitor record path touched the heap";
}

// -------------------------------------- end-to-end deadline-miss injection

TEST(ObsEndToEnd, InjectedOverloadProducesFlightDumpAndUnhealthyReport) {
  trace::TraceRecorder rec(1 << 12);
  trace::TraceSession session(rec);

  core::ServoConfig cfg;
  cfg.duration_s = 0.08;
  core::ServoSystem servo(cfg);

  obs::MonitorHub hub;
  core::ServoSystem::HilOptions options;
  options.duration_s = 0.08;
  // Charge far more cycles than one period affords: every activation
  // overruns, so responses exceed the implicit deadline.
  options.extra_latency_cycles = 80000;
  options.monitors = &hub;
  servo.run_hil(options);

  const obs::TimingMonitor* step = hub.find_timing("servo_hil_step");
  ASSERT_NE(step, nullptr);
  EXPECT_GT(step->deadline_misses(), 0u);
  EXPECT_GT(step->worst_response_us(), 1000.0);  // > 1 ms period

  // Flight recorder: first dump is a deadline miss naming the task and
  // carrying trailing trace events from the run.
  ASSERT_FALSE(hub.flight().dumps().empty());
  const auto& dump = hub.flight().dumps().front();
  EXPECT_EQ(dump.trigger, "deadline_miss");
  EXPECT_EQ(dump.detail, "servo_hil_step");
  EXPECT_FALSE(dump.events.empty());
  EXPECT_FALSE(dump.monitor_state.empty());

  const obs::HealthReport report = hub.report("servo_hil_overload");
  EXPECT_FALSE(report.healthy());
  EXPECT_NE(report.to_text().find("servo_hil_step"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"deadline_miss\""), std::string::npos);
  EXPECT_GT(hub.polls(), 0u);
}

TEST(ObsEndToEnd, MonitorsArePassiveTrajectoryIsUnchanged) {
  // With or without a caller hub the runtime records every dispatch once
  // (into the caller's hub, else its own), so trajectories AND the timing
  // fields read back from those monitors are identical.
  core::ServoConfig cfg;
  cfg.duration_s = 0.1;
  const auto hil = [&](obs::MonitorHub* hub) {
    core::ServoSystem servo(cfg);
    core::ServoSystem::HilOptions options;
    options.monitors = hub;
    return servo.run_hil(options);
  };
  obs::MonitorHub hil_hub;
  const auto bare = hil(nullptr);
  const auto monitored = hil(&hil_hub);
  EXPECT_EQ(bare.iae, monitored.iae);
  EXPECT_EQ(bare.speed.values(), monitored.speed.values());
  EXPECT_EQ(bare.activations, monitored.activations);
  EXPECT_EQ(bare.exec_us_mean, monitored.exec_us_mean);
  EXPECT_EQ(bare.exec_us_max, monitored.exec_us_max);
  EXPECT_EQ(bare.response_us_max, monitored.response_us_max);
  EXPECT_EQ(bare.jitter_us, monitored.jitter_us);
  EXPECT_EQ(bare.profile_report, monitored.profile_report);
  // The monitored run's fields come straight off the caller's monitor.
  const obs::TimingMonitor* step = hil_hub.find_timing("servo_hil_step");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->activations(), monitored.activations);
  EXPECT_EQ(step->exec_us().max(), monitored.exec_us_max);
  EXPECT_EQ(step->worst_response_us(), monitored.response_us_max);
  EXPECT_NE(monitored.profile_report.find(step->state_line("servo_hil_step")),
            std::string::npos);

  const auto pil = [&](obs::MonitorHub* hub) {
    core::ServoSystem servo(cfg);
    core::ServoSystem::PilRunOptions options;
    options.duration_s = 0.1;
    options.monitors = hub;
    return servo.run_pil(options);
  };
  obs::MonitorHub pil_hub;
  const auto pil_bare = pil(nullptr);
  const auto pil_monitored = pil(&pil_hub);
  EXPECT_EQ(pil_bare.iae, pil_monitored.iae);
  EXPECT_EQ(pil_bare.speed.values(), pil_monitored.speed.values());
  const pil::PilReport& a = pil_bare.report;
  const pil::PilReport& b = pil_monitored.report;
  EXPECT_EQ(a.exchanges, b.exchanges);
  EXPECT_EQ(a.round_trip_us(), b.round_trip_us());
  EXPECT_EQ(*a.metrics.find_series("pil.recovery_us"),
            *b.metrics.find_series("pil.recovery_us"));
  EXPECT_EQ(a.controller_exec_us_mean, b.controller_exec_us_mean);
  EXPECT_EQ(a.controller_exec_us_max, b.controller_exec_us_max);
  EXPECT_GT(b.controller_exec_us_max, 0.0);
  const obs::TimingMonitor* rx = pil_hub.find_timing("AS1.OnRxChar");
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->exec_us().max(), b.controller_exec_us_max);
}

TEST(ObsEndToEnd, ExecHistogramMatchesTracedDispatchSeries) {
  // The online exec histograms against an exact per-activation reference:
  // the rt layer's "<dispatch>.exec_us" counter events, one per retired
  // dispatch, captured under a trace session.  Counts equal, max exact,
  // interpolated p50/p99 within twice the histogram's error bound.  The
  // PIL receive ISR is bimodal (byte ISRs vs the frame-completing one
  // that embeds the step); the jittered HIL step is the E6 sweep shape.
  const auto check = [](const trace::TraceRecorder& rec,
                        const std::string& dispatch,
                        const obs::TimingMonitor& mon) {
    ASSERT_EQ(rec.dropped(), 0u);
    std::vector<double> exact;
    const std::string counter = dispatch + ".exec_us";
    rec.for_each([&](const trace::Event& e) {
      if (e.type == trace::EventType::kCounter &&
          rec.string_at(e.name) == counter) {
        exact.push_back(e.value);
      }
    });
    ASSERT_GT(exact.size(), 1u);
    std::sort(exact.begin(), exact.end());
    EXPECT_EQ(mon.exec_us().count(), exact.size());
    EXPECT_EQ(mon.exec_us().max(), exact.back());
    const double bound = 2.0 * util::LatencyHistogram::kRelativeErrorBound;
    for (double p : {50.0, 99.0}) {
      const double ref = exact_percentile(exact, p);
      EXPECT_LE(std::fabs(mon.exec_us().percentile(p) - ref),
                bound * ref + 1e-9)
          << dispatch << " p" << p;
    }
  };

  core::ServoConfig cfg;
  cfg.duration_s = 0.05;
  {
    trace::TraceRecorder rec(1 << 17);
    trace::TraceSession session(rec);
    core::ServoSystem servo(cfg);
    obs::MonitorHub hub;
    core::ServoSystem::PilRunOptions options;
    options.duration_s = 0.05;
    options.monitors = &hub;
    servo.run_pil(options);
    const obs::TimingMonitor* rx = hub.find_timing("AS1.OnRxChar");
    ASSERT_NE(rx, nullptr);
    check(rec, "AS1.OnRxChar", *rx);
  }
  {
    trace::TraceRecorder rec(1 << 17);
    trace::TraceSession session(rec);
    core::ServoSystem servo(cfg);
    obs::MonitorHub hub;
    core::ServoSystem::HilOptions options;
    options.monitors = &hub;
    options.timer_jitter = [](std::uint64_t k) {
      return (k % 2 == 0) ? sim::microseconds(200) : -sim::microseconds(200);
    };
    options.extra_latency_cycles = 6000;
    servo.run_hil(options);
    const obs::TimingMonitor* step = hub.find_timing("servo_hil_step");
    ASSERT_NE(step, nullptr);
    check(rec, "TI1.OnInterrupt", *step);
  }
}

TEST(ObsEndToEnd, PilSessionFeedsRttMonitorAndFifoWatermark) {
  core::ServoConfig cfg;
  cfg.duration_s = 0.05;
  core::ServoSystem servo(cfg);
  obs::MonitorHub hub;
  core::ServoSystem::PilRunOptions options;
  options.duration_s = 0.05;
  options.monitors = &hub;
  const auto result = servo.run_pil(options);

  const obs::TimingMonitor* rtt = hub.find_timing("pil.exchange");
  ASSERT_NE(rtt, nullptr);
  EXPECT_GT(rtt->activations(), 0u);
  // Monitor max is exact: matches the session's own RTT series.
  EXPECT_DOUBLE_EQ(rtt->worst_response_us(),
                   result.report.round_trip_us().max());
  const obs::WatermarkMonitor* fifo = hub.find_watermark("AS1.tx_fifo");
  ASSERT_NE(fifo, nullptr);
  EXPECT_GT(fifo->samples(), 0u);
  EXPECT_GE(fifo->peak(), 1.0);
}

}  // namespace
}  // namespace iecd
