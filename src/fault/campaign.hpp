/// \file campaign.hpp
/// Deterministic fault campaigns: N independent runs of one scenario, each
/// with its own FaultInjector seeded from (campaign seed, run index).
/// campaign::CampaignEngine fans the runs out and merges them in index
/// order, so the campaign report (per-site fault counts, IAE degradation,
/// recovery-latency percentiles, flight-recorder dumps of unrecovered
/// runs) is byte-identical for any thread count and batch width.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/rng.hpp"
#include "obs/health_report.hpp"
#include "trace/metrics.hpp"

namespace iecd::fault {

struct CampaignOptions {
  std::string name = "campaign";
  std::uint64_t seed = 1;
  std::size_t runs = 8;
  /// Worker threads for the fan-out; the merged report and JSON are
  /// identical for every value.
  std::size_t threads = 1;
  /// Lane-group width: each work item covers up to `batch` consecutive run
  /// indices, which a BatchCampaignScenario advances in lockstep
  /// (src/batch/ engines) and a CampaignScenario runs one after another.
  /// Per-run seeding, metrics and the merge are unchanged, so the report
  /// stays byte-identical for every batch width and thread count.
  std::size_t batch = 1;
  FaultPlan plan;
};

/// Handed to the scenario for one campaign run.  The scenario wires
/// \p injector into the world it builds (sites.hpp helpers), runs it, and
/// records its results into \p metrics / \p health.  It must not touch
/// shared mutable state — runs execute on arbitrary worker threads.
struct RunContext {
  std::size_t index = 0;
  std::uint64_t run_seed = 0;
  FaultInjector& injector;
  trace::MetricsRegistry& metrics;
  obs::HealthReport& health;
};

/// One campaign run; returns true when the run RECOVERED (met its
/// scenario-defined acceptance: e.g. bounded tracking error, no abandoned
/// exchange).  A false return marks the run unrecovered in the report and
/// retains its health report's flight-recorder dumps.
using CampaignScenario = std::function<bool(RunContext&)>;

/// Batched scenario: one lane group of consecutive campaign runs, each
/// lane carrying its own seeded injector/registry/health triple exactly as
/// the scalar scenario would see it.  Sets recovered[k] for lane k
/// (recovered.size() == lanes.size(); entries are pre-set to true).
using BatchCampaignScenario =
    std::function<void(std::span<RunContext> lanes, std::span<bool> recovered)>;

/// Seed of run \p index: a SplitMix64 hop from the campaign seed, so
/// replaying one run in isolation (one FaultInjector with this seed)
/// reproduces its exact fault sequence.
inline std::uint64_t run_seed(std::uint64_t campaign_seed, std::size_t index) {
  return SplitMix64(campaign_seed + 0x9E3779B97F4A7C15ULL *
                                        static_cast<std::uint64_t>(index + 1))
      .next();
}

/// Executes campaign runs first .. first + metrics.size() - 1 of \p opts,
/// one lane per run: a FaultInjector seeded with run_seed(opts.seed,
/// index), the scenario, then the campaign bookkeeping (the injector's
/// per-site counters and the campaign.* runs/unrecovered/faults_injected/
/// fault_opportunities markers) into metrics[k].  campaign::CampaignEngine
/// runs every lane group through this function; the scalar form runs the
/// group's lanes one after another through the batched body, so a batched
/// scenario whose lanes reproduce the scalar scenario bit-for-bit (the
/// src/batch/ determinism contract) gives byte-identical registries.
void run_campaign_group(const CampaignOptions& opts,
                        const CampaignScenario& scenario, std::size_t first,
                        std::span<trace::MetricsRegistry> metrics,
                        std::span<obs::HealthReport> health);
/// Batched form: the scenario advances the whole lane group in one call.
void run_campaign_group(const CampaignOptions& opts,
                        const BatchCampaignScenario& scenario,
                        std::size_t first,
                        std::span<trace::MetricsRegistry> metrics,
                        std::span<obs::HealthReport> health);

/// True when run registry \p run carries the campaign.unrecovered marker.
bool run_unrecovered(const trace::MetricsRegistry& run);

struct CampaignReport {
  std::string name;
  std::uint64_t seed = 0;
  std::size_t runs = 0;

  trace::MetricsRegistry merged;  ///< index-order fold of all runs
  obs::HealthReport health;       ///< same fold; "pil.recovery" percentiles

  std::uint64_t unrecovered = 0;
  std::vector<std::size_t> unrecovered_runs;  ///< run indices, ascending
  /// Health reports of the unrecovered runs only, keyed by run index —
  /// what to_json()'s unrecovered_dumps section reads (O(unrecovered),
  /// not O(runs)).  A single run's full record is its run_<index>.evd.
  std::map<std::size_t, obs::HealthReport> unrecovered_health;
  std::uint64_t faults_injected = 0;
  std::uint64_t fault_opportunities = 0;

  /// Sets unrecovered, faults_injected and fault_opportunities from the
  /// merged campaign.* counters (the fold's last step).
  void read_totals();

  /// Deterministic JSON artifact (CAMPAIGN_<name>.json in CI): campaign
  /// identity, per-site fault counters, scenario stats (campaign.* stats,
  /// e.g. IAE), recovery-latency percentiles, unrecovered run indices and
  /// the flight-recorder dumps their health reports retained.  Thread
  /// count and wall clock are deliberately absent — the document is
  /// byte-identical across 1..N worker threads.
  std::string to_json() const;
  bool write_json(const std::string& path) const;
  /// One-line human summary for bench tables / logs.
  std::string summary() const;
};

}  // namespace iecd::fault
