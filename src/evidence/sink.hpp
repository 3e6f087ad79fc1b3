/// \file sink.hpp
/// Wiring the evidence recorder into the execution layers: the per-run
/// artifact + sidecar writer and the campaign seal (merged artifact plus an
/// index-deterministic JSONL manifest) that campaign::CampaignEngine
/// streams a campaign's evidence through, and re-export of an artifact
/// back through the existing Chrome-trace/CSV paths.
///
/// Determinism contract (the repo-wide one): everything written
/// here derives from per-run data that is already index-deterministic, so
/// the manifest and every artifact are byte-identical across campaign
/// thread counts; wall clock and thread ids never appear in any output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "evidence/writer.hpp"
#include "fault/campaign.hpp"

namespace iecd::evidence {

/// What one written artifact looked like (manifest/sidecar raw material).
struct RunArtifact {
  std::string filename;  ///< artifact file name within its directory
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  std::uint64_t chain_hash = 0;
  std::string sha256_hex;
};

/// Builds (in memory) one run artifact: build info, run meta, metrics,
/// optional health report and optional trace.  The returned writer is
/// sealed (finish() already called).
EvidenceWriter build_run_artifact(const std::string& name,
                                  std::uint64_t index, std::uint64_t seed,
                                  const trace::MetricsRegistry& metrics,
                                  const obs::HealthReport* health = nullptr,
                                  const trace::TraceRecorder* trace_rec =
                                      nullptr);

/// Writes \p writer (sealed) to \p dir / \p filename plus a
/// `<filename>.meta.jsonl` sidecar carrying identity, digests and build
/// info.  Creates \p dir if needed.
RunArtifact write_artifact_with_sidecar(const std::string& dir,
                                        const std::string& filename,
                                        const EvidenceWriter& writer,
                                        const std::string& name,
                                        std::uint64_t index,
                                        std::uint64_t seed);

struct CampaignEvidence {
  std::vector<RunArtifact> runs;  ///< index order
  RunArtifact merged;             ///< merged metrics + campaign summary
  std::string manifest;           ///< MANIFEST.jsonl content
  std::string manifest_path;
};

/// Canonical per-run artifact filename within a campaign directory
/// (`run_%04llu.evd`).
std::string run_artifact_filename(std::uint64_t index);

/// Re-describes an artifact already on disk (the campaign resume path):
/// parses and validates \p dir / \p filename, filling \p out with the
/// exact descriptor its original write produced.  False when the file is
/// missing or does not verify.
bool describe_artifact_file(const std::string& dir,
                            const std::string& filename, RunArtifact& out);

/// Seals a campaign whose per-run artifacts are ALREADY on disk (the
/// streaming engine writes them run by run): writes the merged artifact
/// (`merged.evd`: campaign summary + merged metrics/health) and
/// `MANIFEST.jsonl` from the supplied per-run descriptors (index order).
CampaignEvidence finish_campaign_evidence(const std::string& dir,
                                          const fault::CampaignOptions& options,
                                          const fault::CampaignReport& report,
                                          std::vector<RunArtifact> runs);

/// Re-exports an artifact's trace to Chrome trace-event JSON / trace CSV
/// and its metrics to the MetricsRegistry CSV, via the existing
/// trace::write_chrome_trace / write_csv / MetricsRegistry::write_csv
/// paths.  Returns false when the artifact does not verify.
bool reexport_chrome_trace(const std::string& artifact_path,
                           const std::string& out_path,
                           std::string* error = nullptr);
bool reexport_trace_csv(const std::string& artifact_path,
                        const std::string& out_path,
                        std::string* error = nullptr);
bool reexport_metrics_csv(const std::string& artifact_path,
                          const std::string& out_path,
                          std::string* error = nullptr);

}  // namespace iecd::evidence
