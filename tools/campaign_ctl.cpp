// campaign_ctl — drives the streaming campaign engine from the command
// line: start a campaign, kill it mid-flight (deterministically, right
// after a checkpoint seal), resume it, and inspect a checkpoint.  The CI
// campaign-resume job runs exactly this sequence and byte-compares the
// resumed evidence against an uninterrupted run.
//
//   campaign_ctl run --dir DIR [--runs N] [--threads N] [--batch N]
//                    [--seed S] [--checkpoint-every N] [--crash-after K]
//                    [--no-artifacts] [--fresh]
//       Runs the built-in synthetic campaign (deterministic SplitMix64
//       spin work; output depends only on seed/runs/batch).  When a
//       matching CHECKPOINT.evd exists in DIR the run RESUMES at its
//       watermark.  --crash-after K calls _exit(42) right after the K-th
//       checkpoint seal — the crash the resume path is tested against.
//       --fresh wipes DIR first.  Writes DIR/REPORT.json on completion.
//   campaign_ctl status --dir DIR
//       Prints the checkpoint's identity and watermark; exit 0 when a
//       valid checkpoint exists, 1 otherwise.
//
// Numeric flags take a plain decimal integer: a sign, a blank or any
// trailing character is a usage error naming the flag.
//
// Exit code: 0 success, 1 status-missing/failure, 2 usage, 42 when
// --crash-after fired.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "campaign/engine.hpp"
#include "fault/campaign.hpp"
#include "fault/rng.hpp"

#if defined(__unix__)
#include <unistd.h>
#endif

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: campaign_ctl run --dir DIR [--runs N] [--threads N]\n"
      "                        [--batch N] [--seed S]\n"
      "                        [--checkpoint-every N] [--crash-after K]\n"
      "                        [--no-artifacts] [--fresh]\n"
      "       campaign_ctl status --dir DIR\n");
  return 2;
}

/// Parses all of \p text as an unsigned decimal integer (no sign, no
/// blank, no trailing character, no overflow).
bool parse_number(const char* text, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

/// The synthetic run body: deterministic arithmetic seeded from the
/// per-run seed, so the campaign output is a pure function of
/// (seed, runs, batch) — what the resume byte-comparison needs.
bool scenario(iecd::fault::RunContext& ctx) {
  iecd::fault::SplitMix64 rng(ctx.run_seed);
  double acc = 0.0;
  for (int i = 0; i < 2000; ++i) {
    acc = acc * 0.9999999 +
          static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  }
  ctx.metrics.stats("campaign.cost").add(acc);
  const auto t = static_cast<iecd::sim::SimTime>(1000 + ctx.index);
  ctx.health.tasks["ctl.work"].record(t, t + 1, t + 2);
  return true;
}

int cmd_status(const std::string& dir) {
  iecd::campaign::CheckpointState state;
  const std::string path =
      (std::filesystem::path(dir) /
       iecd::campaign::CampaignEngine::checkpoint_filename())
          .string();
  switch (iecd::campaign::load_checkpoint(path, state)) {
    case iecd::campaign::CheckpointStatus::kOk:
      std::printf("checkpoint %s: campaign \"%s\", config %016llx, "
                  "watermark %llu / %llu runs, %zu unrecovered so far\n",
                  path.c_str(), state.name.c_str(),
                  static_cast<unsigned long long>(state.config_hash),
                  static_cast<unsigned long long>(state.watermark),
                  static_cast<unsigned long long>(state.total_runs),
                  state.unrecovered_runs.size());
      return 0;
    case iecd::campaign::CheckpointStatus::kMissing:
      std::printf("no checkpoint at %s\n", path.c_str());
      return 1;
    case iecd::campaign::CheckpointStatus::kCorrupt:
      std::printf("checkpoint at %s is corrupt\n", path.c_str());
      return 1;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  std::string dir;
  std::uint64_t runs = 512;
  std::uint64_t threads = 2;
  std::uint64_t batch = 1;
  std::uint64_t seed = 2026;
  std::uint64_t checkpoint_every = 64;
  std::uint64_t crash_after = 0;
  bool artifacts = true;
  bool fresh = false;
  const std::map<std::string, std::uint64_t*> numeric = {
      {"--runs", &runs},
      {"--threads", &threads},
      {"--batch", &batch},
      {"--seed", &seed},
      {"--checkpoint-every", &checkpoint_every},
      {"--crash-after", &crash_after}};

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (const auto flag = numeric.find(arg); flag != numeric.end() && v) {
      if (!parse_number(v, *flag->second)) {
        std::fprintf(stderr,
                     "campaign_ctl: %s takes an unsigned decimal integer, "
                     "got \"%s\"\n",
                     arg.c_str(), v);
        return 2;
      }
      ++i;
    } else if (arg == "--dir" && v) {
      dir = v;
      ++i;
    } else if (arg == "--no-artifacts") {
      artifacts = false;
    } else if (arg == "--fresh") {
      fresh = true;
    } else {
      return usage();
    }
  }
  if (dir.empty()) return usage();
  if (threads > iecd::campaign::kMaxCampaignThreads) {
    std::fprintf(stderr,
                 "campaign_ctl: --threads takes at most %zu, got %llu\n",
                 iecd::campaign::kMaxCampaignThreads,
                 static_cast<unsigned long long>(threads));
    return 2;
  }
  if (batch == 0) {
    std::fprintf(stderr, "campaign_ctl: --batch takes at least 1, got 0\n");
    return 2;
  }

  if (cmd == "status") return cmd_status(dir);
  if (cmd != "run") return usage();

  if (fresh) std::filesystem::remove_all(dir);

  iecd::campaign::EngineOptions eo;
  eo.campaign.name = "campaign_ctl";
  eo.campaign.seed = seed;
  eo.campaign.runs = runs;
  eo.campaign.threads = threads;
  eo.campaign.batch = batch;
  eo.evidence_dir = dir;
  eo.checkpoint_every = checkpoint_every;
  eo.write_run_artifacts = artifacts;
  std::size_t sealed = 0;
  if (crash_after > 0) {
    eo.on_checkpoint =
        [&sealed, crash_after](const iecd::campaign::CheckpointState& state) {
          if (++sealed == crash_after) {
            std::printf("crash-after: exiting after checkpoint seal at "
                        "watermark %llu\n",
                        static_cast<unsigned long long>(state.watermark));
            std::fflush(stdout);
#if defined(__unix__)
            _exit(42);
#else
            std::_Exit(42);
#endif
          }
        };
  }

  iecd::campaign::CampaignEngine engine(eo);
  const iecd::campaign::EngineResult result = engine.run(
      iecd::fault::CampaignScenario(scenario));

  result.report.write_json(
      (std::filesystem::path(dir) / "REPORT.json").string());
  std::printf("%s%s: %zu runs (%zu threads, batch %zu), %llu checkpoints "
              "sealed, %llu steals, manifest %s\n",
              result.resumed ? "resumed at " : "ran",
              result.resumed
                  ? std::to_string(result.resume_start).c_str()
                  : "",
              static_cast<std::size_t>(runs), result.sched.threads_used,
              static_cast<std::size_t>(batch),
              static_cast<unsigned long long>(result.checkpoints_sealed),
              static_cast<unsigned long long>(result.sched.steals),
              result.evidence.manifest_path.c_str());
  return 0;
}
