/// \file checkpoint.hpp
/// Run-granular campaign checkpoints: the folded-prefix state a streaming
/// campaign needs to resume exactly where it stopped.  A checkpoint is a
/// regular evidence artifact (format.hpp container, schema
/// kSchemaCampaignCheckpoint) holding
///
///   * the campaign identity (name, config hash, total runs),
///   * the completed-run watermark — every run below it is folded into the
///     merged state and, when per-run artifacts are on, sealed on disk,
///   * the merged MetricsRegistry as ordinary metric records (the
///     reader's exact raw-state round trip: counter values, RunningStats
///     {count, mean, m2, sum, min, max} and each series' histogram buckets
///     all travel as little-endian integers / IEEE-754 bit patterns),
///   * an opaque state blob carrying what the metric records cannot: the
///     merged obs::HealthReport (full TimingMonitor / WatermarkMonitor
///     raw state, histograms in the same codec as the series records,
///     including the jitter seam) plus the unrecovered-run indices and
///     their retained health reports.
///
/// Because every field round-trips bit-exactly, a campaign resumed from a
/// checkpoint produces a merged report — and an evidence manifest — that
/// is byte-identical to the uninterrupted run's (the kill/resume suite
/// locks this).  Checkpoint size is O(sites + histogram buckets +
/// unrecovered), never O(runs): a series folds every run's samples into
/// one histogram (Checkpoint.SizeDoesNotGrowWithFoldedRuns pins this).
///
/// The config hash covers everything that determines per-run RESULTS
/// (name, seed, run count, lane-batch width, every FaultPlan field as its
/// exact bit pattern) and deliberately excludes pure scheduling knobs
/// (threads, window, chunk, stealing) — a campaign checkpointed on 8
/// threads resumes bit-identically on 2.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "evidence/format.hpp"
#include "fault/campaign.hpp"
#include "obs/health_report.hpp"
#include "trace/metrics.hpp"

namespace iecd::campaign {

/// Everything a resumed campaign starts from.
struct CheckpointState {
  std::string name;
  std::uint64_t config_hash = 0;
  std::uint64_t total_runs = 0;
  /// Runs [0, watermark) are folded into the state below (and their
  /// artifacts sealed on disk when per-run evidence is enabled).  Always
  /// lane-group aligned — the engine seals only at group boundaries, so a
  /// resume reproduces the uninterrupted run's exact group structure.
  std::uint64_t watermark = 0;

  trace::MetricsRegistry merged;  ///< index-order fold of runs [0, watermark)
  obs::HealthReport health;       ///< same fold (runs counts folded runs)
  std::vector<std::size_t> unrecovered_runs;  ///< ascending, all < watermark
  std::map<std::size_t, obs::HealthReport> unrecovered_health;
};

enum class CheckpointStatus {
  kOk = 0,
  kMissing,   ///< no checkpoint file at the path
  kCorrupt,   ///< artifact fails verification or the state blob is malformed
};

/// FNV-1a 64 over the result-determining campaign configuration: name,
/// seed, runs, batch and every FaultPlan field (doubles hashed as their
/// IEEE-754 bit pattern).  Scheduling knobs are excluded on purpose (see
/// file comment).
std::uint64_t campaign_config_hash(const fault::CampaignOptions& options);

/// Seals \p state into an evidence artifact and writes it atomically
/// (tmp + rename), so a crash mid-write can never leave a torn checkpoint
/// behind — the previous one stays intact until the new bytes are on disk.
bool save_checkpoint(const std::string& path, const CheckpointState& state);

/// Loads and verifies a checkpoint.  On kOk \p out carries the exact state
/// save_checkpoint serialized; on anything else \p out is unspecified and
/// the caller starts fresh (a lost checkpoint only costs recomputation —
/// never correctness).
CheckpointStatus load_checkpoint(const std::string& path,
                                 CheckpointState& out);

/// HealthReport raw-state codec (exposed for the round-trip tests): every
/// monitor serialized field-exactly, doubles as bit patterns.
void encode_health_report(std::vector<std::uint8_t>& out,
                          const obs::HealthReport& report);
bool decode_health_report(evidence::PayloadCursor& cur,
                          obs::HealthReport& out);

}  // namespace iecd::campaign
