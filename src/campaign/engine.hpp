/// \file engine.hpp
/// CampaignEngine: runs every fault campaign — the work-stealing
/// StreamRunner feeding one streaming, index-ordered sink that merges each
/// run, retains only the unrecovered runs' health, writes per-run evidence
/// as runs complete, and periodically seals a resume checkpoint
/// (checkpoint.hpp).  Memory is O(sites + histograms + reorder window +
/// unrecovered), never O(runs) — the difference the E14 bench gates at
/// 100k runs against a retained fold.
///
/// Contracts (all locked by the campaign suite):
///   * a plan fault::validate rejects, a thread count above
///     kMaxCampaignThreads or a batch width of 0 throws at construction,
///     on the caller's thread, before any worker starts;
///   * the report JSON matches tests/golden/campaign_reports.inc;
///   * outputs are byte-identical for any thread count, batch width,
///     placement and steal schedule;
///   * kill the process after any checkpoint seal, run the engine again,
///     and the resumed merged report + evidence manifest are
///     byte-identical to the uninterrupted run's.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "campaign/checkpoint.hpp"
#include "campaign/stream.hpp"
#include "evidence/sink.hpp"
#include "fault/campaign.hpp"

namespace iecd::campaign {

/// Ceiling on fault::CampaignOptions::threads.  Below it the stream runner
/// starts min(threads, lane groups) workers, so a well-formed but huge
/// count would otherwise start one OS thread per group.
inline constexpr std::size_t kMaxCampaignThreads = 256;

struct EngineOptions {
  /// Campaign identity + fault plan + threads/batch (fault layer options;
  /// the engine runs its lane groups through fault::run_campaign_group).
  fault::CampaignOptions campaign;
  /// Evidence directory: run_<index>.evd artifacts stream in as runs
  /// complete, CHECKPOINT.evd lives here between seals, merged.evd and
  /// MANIFEST.jsonl seal the finished campaign.  Empty writes nothing — no
  /// artifact, seal or checkpoint — and returns only the report.
  std::string evidence_dir;
  /// Seal a checkpoint after (at least) this many runs since the previous
  /// seal, at the next lane-group boundary.  0 disables checkpointing.
  std::size_t checkpoint_every = 0;
  /// Pick up a matching CHECKPOINT.evd and resume at its watermark.  A
  /// missing, corrupt or configuration-mismatched checkpoint silently
  /// starts fresh — a lost checkpoint costs recomputation, not
  /// correctness.
  bool resume = true;
  /// Stream one sealed artifact + sidecar per run.  Off for fleet-scale
  /// measurement campaigns where 100k files would dominate the cost; the
  /// merged artifact and manifest are still written.
  bool write_run_artifacts = true;

  // ------------------------- scheduling knobs (StreamOptions semantics)
  // Stealing off plus contiguous placement is the static-tiling baseline
  // the E14 bench measures the shipping schedule against.
  bool stealing = true;    ///< steal-half work stealing
  bool contiguous = false; ///< static-tiling baseline placement
  obs::CampaignProgress* progress = nullptr;

  /// Called after every checkpoint seal with the state just written
  /// (checkpoint cadence tests and campaign_ctl's crash-after-checkpoint
  /// flag hang off this).  Runs on the fold's drain thread — keep it
  /// cheap.
  std::function<void(const CheckpointState&)> on_checkpoint;
};

struct EngineResult {
  /// The merged report; unrecovered_health carries the retained
  /// flight-recorder evidence of the unrecovered runs.
  fault::CampaignReport report;
  /// Empty when EngineOptions::evidence_dir is.
  evidence::CampaignEvidence evidence;
  StreamStats sched;
  bool resumed = false;
  std::size_t resume_start = 0;      ///< watermark the run started from
  std::uint64_t checkpoints_sealed = 0;
};

class CampaignEngine {
 public:
  /// Throws std::invalid_argument when fault::validate rejects the plan,
  /// campaign.threads exceeds kMaxCampaignThreads or campaign.batch is 0.
  explicit CampaignEngine(EngineOptions options);

  const EngineOptions& options() const { return options_; }

  EngineResult run(const fault::CampaignScenario& scenario) const;
  EngineResult run(const fault::BatchCampaignScenario& scenario) const;

  /// "CHECKPOINT.evd" within the evidence directory.
  static std::string checkpoint_filename();
  std::string checkpoint_path() const;

 private:
  EngineResult execute(const StreamRunner::GroupFn& group_fn) const;

  EngineOptions options_;
};

}  // namespace iecd::campaign
