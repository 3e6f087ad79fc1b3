/// \file reader.hpp
/// EvidenceReader: parses and validates an artifact, then exposes its
/// decoded content — the reconstructed MetricsRegistry, trace events with
/// resolved names, health/campaign summaries, build info.  The parser is
/// defensive end to end: every length field is bounds-checked, a
/// truncated or bit-flipped file yields a Status (never UB), and the
/// corruption fuzz test drives it under ASan.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "evidence/schema.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/build_info.hpp"

namespace iecd::evidence {

enum class Status {
  kOk = 0,
  kBadMagic,       ///< header magic wrong
  kBadVersion,     ///< format version newer than this reader
  kBadHeader,      ///< header malformed / file shorter than a header
  kBadSchema,      ///< schema section malformed or incompatible
  kTruncated,      ///< file ends before the footer
  kCorruptRecord,  ///< record cell malformed (bad length / payload)
  kChainMismatch,  ///< footer chain hash does not match the records
  kDigestMismatch, ///< footer SHA-256 does not match the body
  kBadFooter,      ///< footer malformed
};

const char* status_name(Status s);

/// One decoded trace event with interned ids resolved to strings.
struct DecodedEvent {
  std::uint8_t type = 0;
  std::string category;
  std::string name;
  std::string track;
  std::int64_t time = 0;
  std::int64_t duration = 0;
  std::uint64_t seq = 0;
  double value = 0.0;
};

struct HealthSummary {
  std::string source;
  std::uint64_t runs = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t anomalies = 0;
  bool healthy = true;
  std::string json;
};

struct CampaignSummary {
  std::string name;
  std::uint64_t seed = 0;
  std::uint64_t runs = 0;
  std::uint64_t unrecovered = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t fault_opportunities = 0;
  std::string json;
};

struct RunMeta {
  std::string name;
  std::uint64_t index = 0;
  std::uint64_t seed = 0;
};

/// A campaign resume point as stored in the artifact: identity, the
/// completed-run watermark and the opaque fold-state blob (decoded by
/// campaign/checkpoint.hpp; the merged metrics travel as ordinary metric
/// records in the same artifact).
struct CampaignCheckpointRecord {
  std::string name;
  std::uint64_t config_hash = 0;
  std::uint64_t total_runs = 0;
  std::uint64_t watermark = 0;
  std::vector<std::uint8_t> state;
};

class EvidenceReader {
 public:
  explicit EvidenceReader(
      const SchemaRegistry& registry = SchemaRegistry::builtin());

  /// Parses and validates \p bytes.  On any status other than kOk the
  /// decoded content is whatever was recovered before the error; error()
  /// carries a human-readable diagnostic.
  Status parse(const std::uint8_t* data, std::size_t size);
  Status parse(const std::vector<std::uint8_t>& bytes) {
    return parse(bytes.data(), bytes.size());
  }
  /// Reads the file and parses it; kTruncated when it cannot be opened.
  Status parse_file(const std::string& path);

  const std::string& error() const { return error_; }

  // -------------------------------------------------------- decoded data
  const std::vector<Schema>& artifact_schemas() const { return schemas_; }
  const std::map<std::uint32_t, std::string>& strings() const {
    return strings_;
  }
  const std::vector<DecodedEvent>& events() const { return events_; }
  const trace::MetricsRegistry& metrics() const { return metrics_; }
  const std::vector<util::BuildInfo>& build_infos() const {
    return build_infos_;
  }
  const std::vector<RunMeta>& run_metas() const { return run_metas_; }
  const std::vector<HealthSummary>& health_summaries() const {
    return health_summaries_;
  }
  const std::vector<CampaignSummary>& campaign_summaries() const {
    return campaign_summaries_;
  }
  const std::vector<CampaignCheckpointRecord>& campaign_checkpoints() const {
    return campaign_checkpoints_;
  }

  std::uint64_t record_count() const { return record_count_; }
  std::uint64_t chain_hash() const { return chain_hash_; }
  const std::string& sha256_hex() const { return sha256_hex_; }
  /// Records whose schema id the reader's registry does not know
  /// (skipped, per the evolution rules).
  std::uint64_t unknown_records() const { return unknown_records_; }
  /// Records of a retired schema the registry still lists so old
  /// artifacts verify (id 7, the fixed-bin metric_histogram).  Parsed with
  /// full bounds checks, then skipped.  (Retired id 6, metric_series, is
  /// not skipped: its samples fold into the series' histogram.)
  std::uint64_t retired_records() const { return retired_records_; }

  /// Rebuilds a TraceRecorder holding the artifact's events (capacity
  /// sized to fit), for re-export through trace::write_chrome_trace /
  /// write_csv.  When the original recording dropped no ring events the
  /// re-export is byte-identical to exporting the live recorder.
  trace::TraceRecorder rebuild_trace() const;

 private:
  Status fail(Status s, const std::string& message);
  bool decode_record(std::uint16_t schema_id, const std::uint8_t* payload,
                     std::size_t size);

  const SchemaRegistry& registry_;
  std::string error_;

  std::vector<Schema> schemas_;
  std::map<std::uint32_t, std::string> strings_;
  std::vector<DecodedEvent> events_;
  trace::MetricsRegistry metrics_;
  std::vector<util::BuildInfo> build_infos_;
  std::vector<RunMeta> run_metas_;
  std::vector<HealthSummary> health_summaries_;
  std::vector<CampaignSummary> campaign_summaries_;
  std::vector<CampaignCheckpointRecord> campaign_checkpoints_;

  std::uint64_t record_count_ = 0;
  std::uint64_t chain_hash_ = 0;
  std::string sha256_hex_;
  std::uint64_t unknown_records_ = 0;
  std::uint64_t retired_records_ = 0;
};

}  // namespace iecd::evidence
