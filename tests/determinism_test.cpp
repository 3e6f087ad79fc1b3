/// \file determinism_test.cpp
/// Locks in the determinism contracts the hot-path overhaul must preserve:
///  - SweepRunner: parallel execution is byte-identical to sequential,
///  - EventQueue: FIFO tie-breaking matches a reference scheduler on
///    randomized workloads with ties and cancellations,
///  - tracing: two identical runs export byte-identical trace files,
///  - cancel-heavy workloads cannot grow the heap unboundedly (compaction).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "campaign/fold.hpp"
#include "campaign/stream.hpp"
#include "exec/sweep.hpp"
#include "obs/health_report.hpp"
#include "sim/event_queue.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace {

using iecd::exec::SweepOptions;
using iecd::exec::SweepRunner;
using iecd::sim::EventQueue;
using iecd::sim::SimTime;

/// Deterministic 64-bit LCG (identical across platforms/runs, unlike
/// std::rand), used to randomize schedules reproducibly.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 11;
  }
  std::uint64_t next(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Reference scheduler implementing the pre-overhaul algorithm verbatim:
/// a (when, seq) priority queue plus an id->callback map with lazy
/// cancellation.  The production EventQueue must order executions exactly
/// like this on any one-shot workload.
class ReferenceQueue {
 public:
  std::uint64_t schedule_at(SimTime when, std::function<void()> fn) {
    const std::uint64_t id = next_id_++;
    heap_.push(Entry{when, id});
    callbacks_[id] = std::move(fn);
    return id;
  }

  bool cancel(std::uint64_t id) { return callbacks_.erase(id) > 0; }

  bool step() {
    while (!heap_.empty() &&
           callbacks_.find(heap_.top().id) == callbacks_.end()) {
      heap_.pop();
    }
    if (heap_.empty()) return false;
    const Entry top = heap_.top();
    heap_.pop();
    now_ = top.when;
    auto it = callbacks_.find(top.id);
    auto fn = std::move(it->second);
    callbacks_.erase(it);
    fn();
    return true;
  }

  void run_all() {
    while (step()) {
    }
  }

  SimTime now() const { return now_; }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t id;
    bool operator>(const Entry& other) const {
      if (when != other.when) return when > other.when;
      return id > other.id;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_id_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::map<std::uint64_t, std::function<void()>> callbacks_;
};

/// A deterministic synthetic scenario: a little discrete-event run whose
/// metrics depend on the sweep index.  Stands in for a MIL/PIL run.
void scenario_run(std::size_t index, iecd::trace::MetricsRegistry& metrics) {
  EventQueue queue;
  Lcg rng(0x9E3779B97F4A7C15ULL + index);
  double acc = 0.0;
  for (int i = 0; i < 200; ++i) {
    const SimTime when = 1 + static_cast<SimTime>(rng.next(10'000));
    queue.schedule_at(when, [&acc, when] {
      acc += static_cast<double>(when % 97);
    });
  }
  const auto tick = queue.schedule_every(100, [&metrics] {
    metrics.counter("scenario.ticks").increment();
  });
  queue.run_until(10'000);
  queue.cancel(tick);
  queue.run_all();
  metrics.counter("scenario.events").increment(200);
  metrics.gauge("scenario.acc") = acc;
  metrics.stats("scenario.when_mod").add(acc / 200.0);
  metrics.series("scenario.index").record(static_cast<double>(index));
}

TEST(SweepDeterminismTest, ParallelMergeIsByteIdenticalToSequential) {
  SweepRunner sequential(SweepOptions{.threads = 1});
  SweepRunner parallel(SweepOptions{.threads = 4});

  const auto seq = sequential.run(16, scenario_run);
  const auto par = parallel.run(16, scenario_run);

  ASSERT_EQ(seq.runs, 16u);
  ASSERT_EQ(par.runs, 16u);
  EXPECT_EQ(seq.threads_used, 1u);
  // Byte-identical renderings: the merge folds in index order, so thread
  // scheduling cannot leak into the result.
  EXPECT_EQ(seq.merged.report(), par.merged.report());
  EXPECT_EQ(seq.merged.to_csv(), par.merged.to_csv());
  ASSERT_EQ(seq.per_run.size(), par.per_run.size());
  for (std::size_t i = 0; i < seq.per_run.size(); ++i) {
    EXPECT_EQ(seq.per_run[i].report(), par.per_run[i].report()) << "run " << i;
  }
}

TEST(SweepDeterminismTest, RepeatedParallelRunsAgree) {
  SweepRunner runner(SweepOptions{.threads = 3});
  const auto a = runner.run(8, scenario_run);
  const auto b = runner.run(8, scenario_run);
  EXPECT_EQ(a.merged.to_csv(), b.merged.to_csv());
}

/// scenario_run plus a per-run health report whose content depends on the
/// sweep index.
void health_run(std::size_t index, iecd::trace::MetricsRegistry& metrics,
                iecd::obs::HealthReport& health) {
  scenario_run(index, metrics);
  const auto t = static_cast<SimTime>(1000 + 37 * index);
  health.source = "sweep";
  health.tasks["sweep.work"].record(t, t + 1 + static_cast<SimTime>(index),
                                    t + 2 + static_cast<SimTime>(2 * index));
}

TEST(SweepDeterminismTest, FourOverloadsAgreeAcrossThreadsAndBatch) {
  constexpr std::size_t kRuns = 11;
  using iecd::obs::HealthReport;
  using iecd::trace::MetricsRegistry;
  const SweepRunner::Scenario scalar = scenario_run;
  const SweepRunner::HealthScenario with_health = health_run;
  const SweepRunner::BatchScenario batched =
      [](std::size_t first, std::span<MetricsRegistry> metrics) {
        for (std::size_t k = 0; k < metrics.size(); ++k) {
          scenario_run(first + k, metrics[k]);
        }
      };
  const SweepRunner::BatchHealthScenario batched_health =
      [](std::size_t first, std::span<MetricsRegistry> metrics,
         std::span<HealthReport> health) {
        for (std::size_t k = 0; k < metrics.size(); ++k) {
          health_run(first + k, metrics[k], health[k]);
        }
      };

  const auto reference =
      SweepRunner(SweepOptions{.threads = 1}).run(kRuns, with_health);
  ASSERT_EQ(reference.per_run.size(), kRuns);
  ASSERT_EQ(reference.per_run_health.size(), kRuns);
  EXPECT_EQ(reference.health.runs, kRuns);

  const auto expect_metrics = [&](const SweepRunner::Result& got,
                                  const std::string& label) {
    EXPECT_EQ(got.runs, kRuns) << label;
    EXPECT_EQ(got.merged.to_csv(), reference.merged.to_csv()) << label;
    ASSERT_EQ(got.per_run.size(), kRuns) << label;
    for (std::size_t i = 0; i < kRuns; ++i) {
      EXPECT_EQ(got.per_run[i].to_csv(), reference.per_run[i].to_csv())
          << label << " run " << i;
    }
  };
  const auto expect_health = [&](const SweepRunner::Result& got,
                                 const std::string& label) {
    EXPECT_EQ(got.health.to_json(), reference.health.to_json()) << label;
    ASSERT_EQ(got.per_run_health.size(), kRuns) << label;
    for (std::size_t i = 0; i < kRuns; ++i) {
      EXPECT_EQ(got.per_run_health[i].to_json(),
                reference.per_run_health[i].to_json())
          << label << " run " << i;
    }
  };

  for (std::size_t threads : {1u, 3u}) {
    for (std::size_t batch : {1u, 4u}) {
      const SweepRunner runner(
          SweepOptions{.threads = threads, .batch = batch});
      const std::string label = "threads=" + std::to_string(threads) +
                                " batch=" + std::to_string(batch);

      const auto a = runner.run(kRuns, scalar);
      expect_metrics(a, label + " Scenario");
      EXPECT_TRUE(a.per_run_health.empty()) << label;

      const auto b = runner.run(kRuns, with_health);
      expect_metrics(b, label + " HealthScenario");
      expect_health(b, label + " HealthScenario");

      const auto c = runner.run(kRuns, batched);
      expect_metrics(c, label + " BatchScenario");
      EXPECT_TRUE(c.per_run_health.empty()) << label;

      const auto d = runner.run(kRuns, batched_health);
      expect_metrics(d, label + " BatchHealthScenario");
      expect_health(d, label + " BatchHealthScenario");
    }
  }
}

TEST(StreamDeterminismTest, RandomizedFoldOrdersYieldSequentialMerge) {
  // The streaming fold must produce the same merged registry as the
  // sequential index-order fold no matter what order groups arrive in —
  // 50 Lcg-randomized permutations of uneven-sized groups.
  using iecd::campaign::GroupResult;
  using iecd::campaign::ReorderFold;

  const std::size_t kRuns = 24;
  iecd::trace::MetricsRegistry expected;
  for (std::size_t i = 0; i < kRuns; ++i) scenario_run(i, expected);

  // Uneven group tiling of [0, kRuns).
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t first = 0, w = 1; first < kRuns;
       first += w, w = (w % 5) + 1) {
    groups.emplace_back(first, std::min(w, kRuns - first));
  }

  Lcg rng(2026);
  for (int trial = 0; trial < 50; ++trial) {
    auto order = groups;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next(i)]);
    }
    iecd::trace::MetricsRegistry merged;
    ReorderFold fold(0, kRuns, [&merged](GroupResult& g) {
      for (auto& m : g.metrics) merged.merge(m);
    });
    for (const auto& [first, size] : order) {
      auto g = std::make_unique<GroupResult>();
      g->first = first;
      g->metrics.resize(size);
      g->health.resize(size);
      for (std::size_t k = 0; k < size; ++k) {
        scenario_run(first + k, g->metrics[k]);
      }
      fold.submit(std::move(g));
    }
    ASSERT_EQ(fold.watermark(), kRuns) << "trial " << trial;
    EXPECT_EQ(merged.to_csv(), expected.to_csv()) << "trial " << trial;
  }
}

TEST(StreamDeterminismTest, WorkStealingMergeIsByteIdenticalToSequential) {
  using iecd::campaign::GroupResult;
  using iecd::campaign::StreamOptions;
  using iecd::campaign::StreamRunner;

  const std::size_t kRuns = 24;
  auto group_fn = [](std::size_t first,
                     std::span<iecd::trace::MetricsRegistry> metrics,
                     std::span<iecd::obs::HealthReport>) {
    for (std::size_t k = 0; k < metrics.size(); ++k) {
      scenario_run(first + k, metrics[k]);
    }
  };
  auto merged_csv = [&](StreamOptions opts) {
    iecd::trace::MetricsRegistry merged;
    StreamRunner runner(opts);
    runner.run(kRuns, group_fn,
               [&merged](GroupResult& g) {
                 for (auto& m : g.metrics) merged.merge(m);
               });
    return merged.to_csv();
  };

  const std::string seq = merged_csv(StreamOptions{.threads = 1});
  // Steal-heavy (chunk 1) and batched configurations all agree.
  EXPECT_EQ(merged_csv(StreamOptions{.threads = 4, .chunk = 1}), seq);
  EXPECT_EQ(merged_csv(StreamOptions{.threads = 3, .batch = 4}), seq);
  EXPECT_EQ(merged_csv(StreamOptions{.threads = 2, .batch = 5, .window = 11}),
            seq);
}

TEST(EventQueueDeterminismTest, MatchesReferenceSchedulerWithTiesAndCancels) {
  // Same randomized workload driven through both schedulers; the recorded
  // execution order (label sequence) must match exactly.  Timestamps are
  // drawn from a tiny range so ties are common, and a third of the events
  // are cancelled before anything runs.
  for (std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
    EventQueue dut;
    ReferenceQueue ref;
    std::vector<int> dut_order;
    std::vector<int> ref_order;
    std::vector<iecd::sim::EventId> dut_ids;
    std::vector<std::uint64_t> ref_ids;

    Lcg rng(seed);
    constexpr int kEvents = 500;
    for (int i = 0; i < kEvents; ++i) {
      const SimTime when = 1 + static_cast<SimTime>(rng.next(20));  // ties!
      dut_ids.push_back(
          dut.schedule_at(when, [&dut_order, i] { dut_order.push_back(i); }));
      ref_ids.push_back(
          ref.schedule_at(when, [&ref_order, i] { ref_order.push_back(i); }));
    }
    for (int i = 0; i < kEvents; ++i) {
      if (rng.next(3) == 0) {
        EXPECT_EQ(dut.cancel(dut_ids[static_cast<std::size_t>(i)]),
                  ref.cancel(ref_ids[static_cast<std::size_t>(i)]));
      }
    }
    dut.run_all();
    ref.run_all();
    EXPECT_EQ(dut_order, ref_order) << "seed " << seed;
    EXPECT_EQ(dut.now(), ref.now()) << "seed " << seed;
  }
}

TEST(EventQueueDeterminismTest, ReentrantSchedulingMatchesReference) {
  // Callbacks that schedule more work at the current timestamp (the classic
  // cascaded-dispatch pattern) must interleave identically.
  EventQueue dut;
  ReferenceQueue ref;
  std::vector<int> dut_order;
  std::vector<int> ref_order;

  for (int i = 0; i < 50; ++i) {
    const SimTime when = 10 * (1 + i % 5);
    dut.schedule_at(when, [&, i, when] {
      dut_order.push_back(i);
      dut.schedule_at(when, [&dut_order, i] { dut_order.push_back(1000 + i); });
    });
    ref.schedule_at(when, [&, i, when] {
      ref_order.push_back(i);
      ref.schedule_at(when, [&ref_order, i] { ref_order.push_back(1000 + i); });
    });
  }
  dut.run_all();
  ref.run_all();
  EXPECT_EQ(dut_order, ref_order);
}

TEST(TraceDeterminismTest, IdenticalRunsExportByteIdenticalTraces) {
  // Two fresh executions of the same event-driven scenario (dispatch spans
  // emitted by the queue itself plus user instants) must serialize to
  // byte-identical Chrome trace JSON.
  auto run_once = [] {
    iecd::trace::TraceRecorder rec(1 << 14);
    iecd::trace::TraceSession session(rec);
    EventQueue queue;
    Lcg rng(7);
    for (int i = 0; i < 64; ++i) {
      const SimTime when = 1 + static_cast<SimTime>(rng.next(500));
      queue.schedule_at(when, [&queue, when] {
        if (auto* tr = iecd::trace::recorder()) {
          tr->instant("test", "work", "scenario", queue.now(),
                      static_cast<double>(when));
        }
      });
    }
    queue.schedule_every(50, [&queue] {
      if (auto* tr = iecd::trace::recorder()) {
        tr->counter("test", "tick", "scenario", queue.now(), 1.0);
      }
    });
    queue.run_until(500);
    return iecd::trace::to_chrome_trace(rec);
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(EventQueueCompactionTest, CancelHeavyWorkloadKeepsHeapBounded) {
  // Regression for unbounded lazy-removal growth: schedule/cancel churn far
  // exceeding the live set must not grow the pending heap without bound.
  EventQueue queue;
  const auto keeper = queue.schedule_at(1'000'000, [] {});
  (void)keeper;
  constexpr int kChurn = 100'000;
  std::size_t max_heap = 0;
  for (int i = 0; i < kChurn; ++i) {
    const auto id = queue.schedule_at(1'000 + i, [] {});
    ASSERT_TRUE(queue.cancel(id));
    max_heap = std::max(max_heap, queue.heap_size());
  }
  // One live event + churn: the compaction threshold keeps the heap at
  // O(live + constant), nowhere near the 100k cancelled entries.
  EXPECT_LT(max_heap, 300u);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(queue.run_all(), 1u);
}

TEST(EventQueueCompactionTest, StaleEntriesDoNotResurrect) {
  // Slot reuse after cancellation must never fire the old callback
  // (generation tags), even under heavy recycling.
  EventQueue queue;
  int fired_old = 0;
  int fired_new = 0;
  for (int round = 0; round < 1'000; ++round) {
    const auto id =
        queue.schedule_at(queue.now() + 10, [&fired_old] { ++fired_old; });
    ASSERT_TRUE(queue.cancel(id));
    EXPECT_FALSE(queue.cancel(id));  // double-cancel reports false
    queue.schedule_at(queue.now() + 10, [&fired_new] { ++fired_new; });
    queue.run_all();
  }
  EXPECT_EQ(fired_old, 0);
  EXPECT_EQ(fired_new, 1'000);
}

}  // namespace
