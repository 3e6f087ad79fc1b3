#include "campaign/engine.hpp"

#include <filesystem>
#include <stdexcept>
#include <utility>

#include "evidence/writer.hpp"

namespace iecd::campaign {

CampaignEngine::CampaignEngine(EngineOptions options)
    : options_(std::move(options)) {
  if (const util::DiagnosticList d = fault::validate(options_.campaign.plan);
      d.has_errors()) {
    throw std::invalid_argument("CampaignEngine: invalid fault plan:\n" +
                                d.to_string());
  }
  if (options_.campaign.threads > kMaxCampaignThreads) {
    throw std::invalid_argument(
        "CampaignEngine: threads above kMaxCampaignThreads");
  }
  if (options_.campaign.batch == 0) {
    throw std::invalid_argument("CampaignEngine: batch must be at least 1");
  }
}

std::string CampaignEngine::checkpoint_filename() { return "CHECKPOINT.evd"; }

std::string CampaignEngine::checkpoint_path() const {
  return (std::filesystem::path(options_.evidence_dir) /
          checkpoint_filename())
      .string();
}

EngineResult CampaignEngine::run(
    const fault::CampaignScenario& scenario) const {
  return execute([this, &scenario](std::size_t first,
                                   std::span<trace::MetricsRegistry> metrics,
                                   std::span<obs::HealthReport> health) {
    fault::run_campaign_group(options_.campaign, scenario, first, metrics,
                              health);
  });
}

EngineResult CampaignEngine::run(
    const fault::BatchCampaignScenario& scenario) const {
  return execute([this, &scenario](std::size_t first,
                                   std::span<trace::MetricsRegistry> metrics,
                                   std::span<obs::HealthReport> health) {
    fault::run_campaign_group(options_.campaign, scenario, first, metrics,
                              health);
  });
}

EngineResult CampaignEngine::execute(
    const StreamRunner::GroupFn& group_fn) const {
  const fault::CampaignOptions& opts = options_.campaign;
  const std::string& dir = options_.evidence_dir;
  // An empty directory writes nothing: no artifact, seal or checkpoint.
  const bool record = !dir.empty();
  const bool run_artifacts = record && options_.write_run_artifacts;
  const std::size_t checkpoint_every =
      record ? options_.checkpoint_every : 0;
  if (record) std::filesystem::create_directories(dir);
  const std::string ckpt_path = checkpoint_path();

  EngineResult result;

  CheckpointState state;
  state.name = opts.name;
  state.config_hash = campaign_config_hash(opts);
  state.total_runs = opts.runs;
  // HealthReport defaults to runs = 1; the fold counts folded runs, same
  // as exec::SweepRunner's health path.
  state.health.runs = 0;

  std::vector<evidence::RunArtifact> artifacts;

  if (checkpoint_every > 0 && options_.resume) {
    CheckpointState loaded;
    if (load_checkpoint(ckpt_path, loaded) == CheckpointStatus::kOk &&
        loaded.name == state.name &&
        loaded.config_hash == state.config_hash &&
        loaded.total_runs == opts.runs && loaded.watermark <= opts.runs &&
        (loaded.watermark % opts.batch == 0 || loaded.watermark == opts.runs)) {
      // Re-describe the completed runs' artifacts instead of storing
      // O(runs) descriptors in the checkpoint; any missing or corrupt
      // file invalidates the resume (fresh start is always safe).
      bool intact = true;
      std::vector<evidence::RunArtifact> described(
          run_artifacts ? loaded.watermark : 0);
      for (std::size_t i = 0; i < described.size(); ++i) {
        if (!evidence::describe_artifact_file(
                dir, evidence::run_artifact_filename(i), described[i])) {
          intact = false;
          break;
        }
      }
      if (intact) {
        state = std::move(loaded);
        artifacts = std::move(described);
        result.resumed = true;
      }
    }
  }
  result.resume_start = static_cast<std::size_t>(state.watermark);

  std::size_t last_checkpoint = result.resume_start;
  StreamRunner::SinkFn sink = [&](GroupResult& group) {
    for (std::size_t k = 0; k < group.metrics.size(); ++k) {
      const std::size_t index = group.first + k;
      state.merged.merge(group.metrics[k]);
      state.health.merge(group.health[k]);
      if (fault::run_unrecovered(group.metrics[k])) {
        state.unrecovered_runs.push_back(index);
        state.unrecovered_health.emplace(index, group.health[k]);
      }
      if (run_artifacts) {
        const std::uint64_t seed = fault::run_seed(opts.seed, index);
        evidence::EvidenceWriter writer = evidence::build_run_artifact(
            opts.name, index, seed, group.metrics[k], &group.health[k],
            nullptr);
        artifacts.push_back(evidence::write_artifact_with_sidecar(
            dir, evidence::run_artifact_filename(index), writer, opts.name,
            index, seed));
      }
    }
    state.watermark = group.first + group.metrics.size();
    // Seal at lane-group boundaries only, so the watermark stays
    // group-aligned and a resume reproduces the uninterrupted run's exact
    // group structure.
    if (checkpoint_every > 0 && state.watermark < opts.runs &&
        state.watermark - last_checkpoint >= checkpoint_every) {
      if (save_checkpoint(ckpt_path, state)) {
        last_checkpoint = static_cast<std::size_t>(state.watermark);
        ++result.checkpoints_sealed;
        if (options_.progress != nullptr) {
          options_.progress->checkpoints.fetch_add(1,
                                                   std::memory_order_relaxed);
        }
        if (options_.on_checkpoint) options_.on_checkpoint(state);
      }
    }
  };

  StreamOptions so;
  so.threads = opts.threads;
  so.batch = opts.batch;
  so.stealing = options_.stealing;
  so.placement = options_.contiguous ? Placement::kContiguous
                                     : Placement::kCyclic;
  so.progress = options_.progress;
  StreamRunner stream(so);
  result.sched = stream.run(opts.runs, result.resume_start, group_fn, sink);

  fault::CampaignReport& report = result.report;
  report.name = opts.name;
  report.seed = opts.seed;
  report.runs = opts.runs;
  report.merged = std::move(state.merged);
  report.health = std::move(state.health);
  report.unrecovered_runs = std::move(state.unrecovered_runs);
  report.unrecovered_health = std::move(state.unrecovered_health);
  report.read_totals();

  if (!record) return result;
  result.evidence = evidence::finish_campaign_evidence(dir, opts, report,
                                                       std::move(artifacts));

  // The campaign finished; the checkpoint has served its purpose.  A
  // stale one must not survive into the next (possibly different)
  // campaign in the same directory.
  std::error_code ec;
  std::filesystem::remove(ckpt_path, ec);
  std::filesystem::remove(ckpt_path + ".tmp", ec);

  return result;
}

}  // namespace iecd::campaign
