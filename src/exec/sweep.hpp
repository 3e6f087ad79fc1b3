/// \file sweep.hpp
/// First-class parallel scenario fan-out.  A SweepRunner executes N
/// independent scenarios (World/MIL/PIL runs, parameter-sweep points)
/// across worker threads and merges each run's MetricsRegistry
/// deterministically.
///
/// Determinism contract: each scenario writes only into the registry it is
/// handed (plus its own locals), every scenario is itself deterministic,
/// and the merge folds registries in index order 0..N-1 regardless of the
/// order in which worker threads finish.  Under those conditions the merged
/// registry — report(), to_csv(), every metric — is byte-identical to a
/// sequential run, for any thread count.  The determinism suite
/// (tests/determinism_test.cpp) locks this property in.
///
/// Execution engine: runs ride on campaign::StreamRunner — a work-stealing
/// scheduler (per-worker chunk deques, steal-half) feeding a windowed
/// index-order fold.  Heterogeneous run costs do not idle threads the way
/// static tiling did.  Every run's registry (and health report) is kept in
/// Result::per_run; campaign-scale callers that cannot afford O(runs)
/// memory use campaign::CampaignEngine's streaming sink instead.
///
/// Batched execution: runs are tiled into ceil(runs / SweepOptions::batch)
/// contiguous lane groups.  A BatchScenario advances each group in
/// lockstep (typically through batch::ServoBatch in src/batch/); a scalar
/// Scenario runs the group's runs one after another.  The merge is
/// untouched — still a fold in index order — so a batched sweep's report
/// is byte-identical to the scalar sweep whenever each lane's scenario is.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "campaign/stream.hpp"
#include "obs/health_report.hpp"
#include "trace/metrics.hpp"

namespace iecd::exec {

struct SweepOptions {
  /// Worker threads; 0 selects hardware_concurrency.  1 runs the scenarios
  /// inline on the calling thread (the sequential reference execution).
  std::size_t threads = 0;
  /// Lane-group width: each work item covers up to `batch` consecutive run
  /// indices.  1 degenerates to one run per item (the scalar tiling).
  std::size_t batch = 1;
};

class SweepRunner {
 public:
  /// A scenario: run sweep point \p index, record results into \p metrics.
  /// Must not touch shared mutable state — each invocation gets its own
  /// registry and runs on an arbitrary worker thread.
  using Scenario =
      std::function<void(std::size_t index, trace::MetricsRegistry& metrics)>;

  /// A health-aware scenario: additionally fills a per-run HealthReport
  /// (typically MonitorHub::report() of a hub local to the run).
  using HealthScenario = std::function<void(
      std::size_t index, trace::MetricsRegistry& metrics,
      obs::HealthReport& health)>;

  /// A batched scenario: advance the lane group covering run indices
  /// [first, first + metrics.size()) in lockstep, recording run
  /// first + k into metrics[k].  Groups are contiguous; the last group of
  /// a sweep may be narrower than SweepOptions::batch (remainder lanes).
  /// Same isolation rule as Scenario: write only the handed registries.
  using BatchScenario = std::function<void(
      std::size_t first, std::span<trace::MetricsRegistry> metrics)>;

  /// Batched health-aware scenario (health.size() == metrics.size()).
  using BatchHealthScenario = std::function<void(
      std::size_t first, std::span<trace::MetricsRegistry> metrics,
      std::span<obs::HealthReport> health)>;

  explicit SweepRunner(SweepOptions options = {});

  struct Result {
    trace::MetricsRegistry merged;  ///< index-order fold of all runs
    std::vector<trace::MetricsRegistry> per_run;
    /// Merged health report (HealthScenario runs only): same index-order
    /// fold, so histograms/percentiles and anomaly counts are byte-
    /// deterministic for any thread count.
    obs::HealthReport health;
    /// Per-run health reports (health-aware scenarios only).
    std::vector<obs::HealthReport> per_run_health;
    std::size_t runs = 0;
    std::size_t threads_used = 0;
    double wall_ms = 0.0;  ///< wall clock (informational; not merged)
    /// Scheduler telemetry (steals, window waits, reorder-buffer peak).
    /// Informational — never folded into merged outputs.
    campaign::StreamStats sched;
  };

  /// Executes \p runs scenario instances and merges their metrics.
  Result run(std::size_t runs, const Scenario& scenario) const;

  /// Health-aware variant: merges per-run metrics AND health reports in
  /// index order (Result::health starts from runs == 0 and folds each
  /// per-run report, so its `runs` counts the sweep points).
  Result run(std::size_t runs, const HealthScenario& scenario) const;

  /// Batched variants: each call advances one lane group.  Per-run
  /// registries and the index-order merge are identical to the scalar
  /// overloads, so thread count and batch width never change the merged
  /// report.
  Result run(std::size_t runs, const BatchScenario& scenario) const;
  Result run(std::size_t runs, const BatchHealthScenario& scenario) const;

 private:
  /// The one fan-out body the four overloads adapt into.
  Result fan_out(std::size_t runs, bool with_health,
                 const campaign::StreamRunner::GroupFn& group) const;

  SweepOptions options_;
};

}  // namespace iecd::exec
