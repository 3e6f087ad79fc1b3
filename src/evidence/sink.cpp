#include "evidence/sink.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "evidence/hash.hpp"
#include "evidence/reader.hpp"
#include "evidence/verify.hpp"
#include "trace/export.hpp"
#include "util/json.hpp"

namespace iecd::evidence {

namespace {

using util::json_escape;

std::string build_line() {
  return "{\"kind\":\"build\",\"build\":" + util::build_info_json() + "}";
}

std::string artifact_line(const char* kind, const RunArtifact& artifact,
                          std::uint64_t index, std::uint64_t seed,
                          bool with_run_fields) {
  std::string line = "{\"kind\":\"" + std::string(kind) + "\"";
  if (with_run_fields) {
    line += ",\"index\":" + std::to_string(index);
    line += ",\"seed\":" + std::to_string(seed);
  }
  line += ",\"path\":\"" + json_escape(artifact.filename) + "\"";
  line += ",\"bytes\":" + std::to_string(artifact.bytes);
  line += ",\"records\":" + std::to_string(artifact.records);
  line += ",\"chain_hash\":\"" + hex64(artifact.chain_hash) + "\"";
  line += ",\"sha256\":\"" + artifact.sha256_hex + "\"}";
  return line;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  os << content;
  return os.good();
}

RunArtifact describe(const std::string& filename,
                     const EvidenceWriter& writer) {
  RunArtifact artifact;
  artifact.filename = filename;
  artifact.bytes = writer.bytes().size();
  artifact.records = writer.record_count();
  artifact.chain_hash = writer.chain_hash();
  artifact.sha256_hex = writer.sha256_hex();
  return artifact;
}

}  // namespace

EvidenceWriter build_run_artifact(const std::string& name,
                                  std::uint64_t index, std::uint64_t seed,
                                  const trace::MetricsRegistry& metrics,
                                  const obs::HealthReport* health,
                                  const trace::TraceRecorder* trace_rec) {
  EvidenceWriter writer;
  writer.record_build_info();
  writer.record_run_meta(name, index, seed);
  writer.record_metrics(metrics);
  if (health != nullptr) writer.record_health(*health);
  if (trace_rec != nullptr) writer.record_trace(*trace_rec);
  writer.finish();
  return writer;
}

RunArtifact write_artifact_with_sidecar(const std::string& dir,
                                        const std::string& filename,
                                        const EvidenceWriter& writer,
                                        const std::string& name,
                                        std::uint64_t index,
                                        std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  const RunArtifact artifact = describe(filename, writer);
  writer.write_file((std::filesystem::path(dir) / filename).string());

  std::string sidecar;
  sidecar += "{\"kind\":\"artifact\",\"name\":\"" + json_escape(name) +
             "\",\"index\":" + std::to_string(index) +
             ",\"seed\":" + std::to_string(seed) +
             ",\"path\":\"" + json_escape(filename) +
             "\",\"bytes\":" + std::to_string(artifact.bytes) +
             ",\"records\":" + std::to_string(artifact.records) +
             ",\"chain_hash\":\"" + hex64(artifact.chain_hash) +
             "\",\"sha256\":\"" + artifact.sha256_hex + "\"}\n";
  sidecar += build_line() + "\n";
  write_text_file(
      (std::filesystem::path(dir) / (filename + ".meta.jsonl")).string(),
      sidecar);
  return artifact;
}

std::string run_artifact_filename(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "run_%04llu.evd",
                static_cast<unsigned long long>(index));
  return buf;
}

bool describe_artifact_file(const std::string& dir,
                            const std::string& filename, RunArtifact& out) {
  const std::string path = (std::filesystem::path(dir) / filename).string();
  EvidenceReader reader;
  if (reader.parse_file(path) != Status::kOk) return false;
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  if (ec) return false;
  out.filename = filename;
  out.bytes = bytes;
  out.records = reader.record_count();
  out.chain_hash = reader.chain_hash();
  out.sha256_hex = reader.sha256_hex();
  return true;
}

CampaignEvidence finish_campaign_evidence(const std::string& dir,
                                          const fault::CampaignOptions& options,
                                          const fault::CampaignReport& report,
                                          std::vector<RunArtifact> runs) {
  CampaignEvidence evidence;
  std::filesystem::create_directories(dir);
  evidence.runs = std::move(runs);

  // Merged artifact: campaign summary + merged metrics/health.
  {
    EvidenceWriter writer;
    writer.record_build_info();
    writer.record_run_meta(report.name, report.runs, options.seed);
    writer.record_campaign_summary(report.name, report.seed, report.runs,
                                   report.unrecovered,
                                   report.faults_injected,
                                   report.fault_opportunities,
                                   report.to_json());
    writer.record_metrics(report.merged);
    writer.record_health(report.health);
    writer.finish();
    evidence.merged = write_artifact_with_sidecar(
        dir, "merged.evd", writer, report.name, report.runs, options.seed);
  }

  std::string manifest;
  manifest += "{\"kind\":\"campaign\",\"name\":\"" +
              json_escape(report.name) +
              "\",\"seed\":" + std::to_string(report.seed) +
              ",\"runs\":" + std::to_string(report.runs) +
              ",\"unrecovered\":" + std::to_string(report.unrecovered) +
              ",\"faults_injected\":" +
              std::to_string(report.faults_injected) + "}\n";
  manifest += build_line() + "\n";
  for (std::size_t i = 0; i < evidence.runs.size(); ++i) {
    manifest += artifact_line("run", evidence.runs[i], i,
                              fault::run_seed(options.seed, i), true) +
                "\n";
  }
  manifest += artifact_line("merged", evidence.merged, 0, 0, false) + "\n";
  evidence.manifest = manifest;
  evidence.manifest_path =
      (std::filesystem::path(dir) / "MANIFEST.jsonl").string();
  write_text_file(evidence.manifest_path, manifest);
  return evidence;
}

namespace {

bool reexport(const std::string& artifact_path, const std::string& out_path,
              std::string* error, int kind) {
  EvidenceReader reader;
  const Status status = reader.parse_file(artifact_path);
  if (status != Status::kOk) {
    if (error) {
      *error = std::string(status_name(status)) +
               (reader.error().empty() ? "" : ": " + reader.error());
    }
    return false;
  }
  std::ofstream os(out_path, std::ios::binary);
  if (!os) {
    if (error) *error = "cannot open " + out_path;
    return false;
  }
  if (kind == 2) {
    reader.metrics().write_csv(os);
  } else {
    const trace::TraceRecorder recorder = reader.rebuild_trace();
    if (kind == 0) {
      trace::write_chrome_trace(recorder, os);
    } else {
      trace::write_csv(recorder, os);
    }
  }
  return os.good();
}

}  // namespace

bool reexport_chrome_trace(const std::string& artifact_path,
                           const std::string& out_path, std::string* error) {
  return reexport(artifact_path, out_path, error, 0);
}

bool reexport_trace_csv(const std::string& artifact_path,
                        const std::string& out_path, std::string* error) {
  return reexport(artifact_path, out_path, error, 1);
}

bool reexport_metrics_csv(const std::string& artifact_path,
                          const std::string& out_path, std::string* error) {
  return reexport(artifact_path, out_path, error, 2);
}

}  // namespace iecd::evidence
