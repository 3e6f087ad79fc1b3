// Evidence tour: the evidence recorder (src/evidence/) in four acts.
//
//   1. Record — one PIL servo run (trace + metrics + health) sealed into
//      a binary .evd artifact with a JSONL sidecar: length-prefixed
//      records, schema registry, chained record hash, SHA-256 footer.
//   2. Verify — evidence_verify's library path passes the artifact; a
//      single flipped byte is caught by the hash chain / digest.
//   3. Campaign — a default fault campaign in campaign::CampaignEngine
//      streams per-run artifacts, a merged artifact and MANIFEST.jsonl;
//      running it again on a different thread count yields a
//      byte-identical manifest.
//   4. Re-export — the artifact replays back through the existing
//      Chrome-trace and metrics-CSV exporters.
//
// Leaves everything under evidence_out/ so CI can run evidence_verify on
// each artifact afterwards.
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "core/case_study.hpp"
#include "evidence/sink.hpp"
#include "evidence/verify.hpp"
#include "fault/campaign.hpp"
#include "obs/monitor.hpp"
#include "trace/trace.hpp"

using namespace iecd;

namespace {

core::ServoConfig tour_config() {
  core::ServoConfig cfg;
  cfg.duration_s = 0.3;
  cfg.setpoint_time = 0.02;
  return cfg;
}

fault::CampaignOptions campaign_options(std::size_t threads) {
  fault::CampaignOptions opts;
  opts.name = "evidence_tour";
  opts.seed = 42;
  opts.runs = 4;
  opts.threads = threads;
  opts.plan = fault::FaultPlan::defaults();
  return opts;
}

bool campaign_body(fault::RunContext& ctx) {
  core::ServoSystem servo(tour_config());
  obs::MonitorHub hub;
  core::ServoSystem::PilRunOptions run;
  run.baud = 1000000;
  run.faults = &ctx.injector;
  run.monitors = &hub;
  run.recovery.enabled = true;
  const auto result = servo.run_pil(run);
  ctx.metrics.merge(result.report.metrics);
  ctx.metrics.stats("campaign.iae").add(result.iae);
  ctx.health.merge(hub.report("pil"));
  const auto* abandoned =
      result.report.metrics.find_counter("pil.exchanges_abandoned");
  return abandoned == nullptr || abandoned->value == 0;
}

evidence::CampaignEvidence campaign_evidence(const std::string& dir,
                                             std::size_t threads) {
  campaign::EngineOptions eo;
  eo.campaign = campaign_options(threads);
  eo.evidence_dir = dir;
  return campaign::CampaignEngine(eo)
      .run(fault::CampaignScenario(campaign_body))
      .evidence;
}

std::string g_run_artifact_path;

void act_one_record() {
  std::printf("=== 1. record: one sealed run artifact ===\n\n");

  trace::TraceRecorder rec(std::size_t{1} << 15);
  obs::MonitorHub hub;
  core::ServoSystem servo(tour_config());
  core::ServoSystem::PilRunOptions run;
  run.baud = 1000000;
  run.monitors = &hub;
  trace::MetricsRegistry metrics;
  double iae = 0.0;
  {
    trace::TraceSession session(rec);
    const auto result = servo.run_pil(run);
    metrics.merge(result.report.metrics);
    iae = result.iae;
  }
  metrics.gauge("servo.iae") = iae;
  const obs::HealthReport health = hub.report("pil");

  const auto writer = evidence::build_run_artifact("evidence_tour", 0, 42,
                                                   metrics, &health, &rec);
  const auto artifact = evidence::write_artifact_with_sidecar(
      "evidence_out/tour", "run_0000.evd", writer, "evidence_tour", 0, 42);
  g_run_artifact_path = "evidence_out/tour/" + artifact.filename;

  std::printf("servo PIL run, IAE %.3f -> %s\n", iae,
              g_run_artifact_path.c_str());
  std::printf("  %llu records, %llu bytes, chain %016llx\n",
              static_cast<unsigned long long>(artifact.records),
              static_cast<unsigned long long>(artifact.bytes),
              static_cast<unsigned long long>(artifact.chain_hash));
  std::printf("  sha256 %s\n", artifact.sha256_hex.c_str());
  std::printf("  sidecar %s.meta.jsonl (identity + digests + build "
              "info)\n\n",
              g_run_artifact_path.c_str());
}

void act_two_verify() {
  std::printf("=== 2. verify: digests hold, tampering is caught ===\n\n");

  const auto pass = evidence::verify_artifact_file(g_run_artifact_path);
  std::printf("%s\n", pass.summary().c_str());

  // Flip one byte in the middle of the record stream: the chain hash (and
  // the final digest) must refuse it.
  std::vector<std::uint8_t> bytes;
  if (std::FILE* f = std::fopen(g_run_artifact_path.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    const auto n = std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    bytes.resize(n);
  }
  if (bytes.size() > 256) {
    bytes[bytes.size() / 2] ^= 0x01;
    const auto fail = evidence::verify_artifact(bytes, "tampered");
    std::printf("%s\n", fail.summary().c_str());
  }
  std::printf("\n");
}

void act_three_campaign() {
  std::printf("=== 3. campaign evidence: per-run artifacts + manifest "
              "===\n\n");

  const auto ev1 = campaign_evidence("evidence_out/campaign", 1);
  const auto ev4 = campaign_evidence("evidence_out/campaign_t4", 4);

  std::printf("%zu run artifacts + merged.evd + MANIFEST.jsonl -> "
              "evidence_out/campaign\n",
              ev1.runs.size());
  std::printf("manifest identical for 1 vs 4 campaign threads: %s\n",
              ev1.manifest == ev4.manifest ? "yes" : "NO");

  const auto mv = evidence::verify_manifest(ev1.manifest_path);
  std::printf("verify_manifest: %s (%zu/%zu artifacts pass, digests "
              "pinned)\n\n",
              mv.ok ? "PASS" : "FAIL", mv.passed, mv.entries.size());
}

void act_four_reexport() {
  std::printf("=== 4. re-export through the existing exporters ===\n\n");

  std::string err;
  const bool chrome = evidence::reexport_chrome_trace(
      g_run_artifact_path, "evidence_out/tour/run_0000.trace.json", &err);
  std::printf("chrome trace : %s%s%s\n", chrome ? "ok -> " : "FAILED ",
              chrome ? "evidence_out/tour/run_0000.trace.json" : err.c_str(),
              "");
  const bool csv = evidence::reexport_metrics_csv(
      g_run_artifact_path, "evidence_out/tour/run_0000.metrics.csv", &err);
  std::printf("metrics csv  : %s%s%s\n\n", csv ? "ok -> " : "FAILED ",
              csv ? "evidence_out/tour/run_0000.metrics.csv" : err.c_str(),
              "");
}

}  // namespace

int main() {
  std::printf("IECD evidence tour: deterministic binary run artifacts with "
              "schema registry,\ncontent hashes, and replay/verify\n\n");
  act_one_record();
  act_two_verify();
  act_three_campaign();
  act_four_reexport();
  std::printf("artifacts left under evidence_out/ — run "
              "tools/evidence_verify on any of them.\n");
  return 0;
}
