#include "evidence/verify.hpp"

#include <filesystem>
#include <fstream>

#include "evidence/hash.hpp"
#include "util/json.hpp"

namespace iecd::evidence {

namespace {

using util::json_escape;

/// Minimal extraction of a string value from one JSONL line written by
/// this tree's own emitters (no escapes inside the values we look for).
std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto start = line.find(needle);
  if (start == std::string::npos) return "";
  const auto value_start = start + needle.size();
  const auto end = line.find('"', value_start);
  if (end == std::string::npos) return "";
  return line.substr(value_start, end - value_start);
}

}  // namespace

std::string VerifyResult::summary() const {
  if (!ok) {
    return "FAIL " + path + ": " + std::string(status_name(status)) +
           (error.empty() ? "" : " — " + error);
  }
  return "PASS " + path + " (records=" + std::to_string(records) +
         ", events=" + std::to_string(events) + ", sha256=" +
         sha256_hex.substr(0, 12) + "…, chain=" + chain_hash_hex + ")";
}

std::string VerifyResult::to_json() const {
  std::string out = "{\"path\":\"" + json_escape(path) + "\",\"ok\":";
  out += ok ? "true" : "false";
  out += ",\"status\":\"" + std::string(status_name(status)) + "\"";
  if (!error.empty()) out += ",\"error\":\"" + json_escape(error) + "\"";
  out += ",\"bytes\":" + std::to_string(bytes);
  out += ",\"records\":" + std::to_string(records);
  out += ",\"unknown_records\":" + std::to_string(unknown_records);
  out += ",\"events\":" + std::to_string(events);
  out += ",\"chain_hash\":\"" + chain_hash_hex + "\"";
  out += ",\"sha256\":\"" + sha256_hex + "\"";
  out += ",\"schemas\":[";
  // Appended piecewise: the chained operator+ form trips a spurious
  // -Wrestrict in gcc 12's inlined basic_string internals.
  for (std::size_t i = 0; i < schema_names.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += json_escape(schema_names[i]);
    out += '"';
  }
  out += "]}";
  return out;
}

VerifyResult verify_artifact(const std::uint8_t* data, std::size_t size,
                             const std::string& label) {
  VerifyResult result;
  result.path = label;
  result.bytes = size;
  EvidenceReader reader;
  result.status = reader.parse(data, size);
  result.ok = result.status == Status::kOk;
  result.error = reader.error();
  result.records = reader.record_count();
  result.unknown_records = reader.unknown_records();
  result.events = reader.events().size();
  result.chain_hash_hex = hex64(reader.chain_hash());
  result.sha256_hex = reader.sha256_hex();
  for (const auto& schema : reader.artifact_schemas()) {
    result.schema_names.push_back(schema.name);
  }
  return result;
}

VerifyResult verify_artifact(const std::vector<std::uint8_t>& bytes,
                             const std::string& label) {
  return verify_artifact(bytes.data(), bytes.size(), label);
}

VerifyResult verify_artifact_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    VerifyResult result;
    result.path = path;
    result.status = Status::kTruncated;
    result.error = "cannot open file";
    return result;
  }
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  return verify_artifact(bytes.data(), bytes.size(), path);
}

ManifestVerifyResult verify_manifest(const std::string& manifest_path) {
  ManifestVerifyResult result;
  result.path = manifest_path;
  std::ifstream is(manifest_path);
  if (!is) {
    result.error = "cannot open manifest";
    return result;
  }
  const auto dir = std::filesystem::path(manifest_path).parent_path();
  std::string line;
  while (std::getline(is, line)) {
    const std::string rel = json_field(line, "path");
    if (rel.empty()) continue;  // campaign/build header lines
    ManifestEntry entry;
    entry.path = rel;
    entry.sha256_hex = json_field(line, "sha256");
    const auto full = (dir / rel).string();
    const VerifyResult v = verify_artifact_file(full);
    if (!v.ok) {
      entry.error = v.summary();
    } else if (!entry.sha256_hex.empty() &&
               entry.sha256_hex != v.sha256_hex) {
      entry.error = "digest mismatch: manifest pins " + entry.sha256_hex +
                    ", file hashes to " + v.sha256_hex;
    } else {
      entry.verified = true;
      ++result.passed;
    }
    result.entries.push_back(std::move(entry));
  }
  if (result.entries.empty()) {
    result.error = "manifest lists no artifacts";
    return result;
  }
  result.ok = result.passed == result.entries.size();
  return result;
}

}  // namespace iecd::evidence
