/// \file writer.hpp
/// EvidenceWriter: serializes one run's records into an in-memory
/// artifact (format.hpp layout) and seals it with the hash footer.  All
/// output is deterministic — recording the same run twice produces the
/// same bytes, and the golden tests hold that byte-for-byte.
///
/// Usage:
///   EvidenceWriter w;
///   w.record_build_info();
///   w.record_run_meta("servo_pil", index, seed);
///   w.record_metrics(metrics);
///   w.record_health(health);
///   w.record_trace(recorder);   // string table + events
///   w.finish();
///   w.write_file("run_0000.evd");
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "evidence/hash.hpp"
#include "evidence/schema.hpp"
#include "obs/health_report.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/build_info.hpp"

namespace iecd::evidence {

class EvidenceWriter {
 public:
  explicit EvidenceWriter(
      const SchemaRegistry& registry = SchemaRegistry::builtin());

  // ------------------------------------------------------------- records
  /// Process build provenance (util::build_info()).
  void record_build_info();
  void record_build_info(const util::BuildInfo& info);
  void record_run_meta(const std::string& name, std::uint64_t index,
                       std::uint64_t seed);
  /// Every registry entry in deterministic (map) order: counters, gauges,
  /// stats, series.
  void record_metrics(const trace::MetricsRegistry& metrics);
  /// Headline numbers + the full JSON document.
  void record_health(const obs::HealthReport& health);
  /// Campaign headline record (the sink layer fills the JSON string with
  /// CampaignReport::to_json(); this header stays fault-agnostic).
  void record_campaign_summary(const std::string& name, std::uint64_t seed,
                               std::uint64_t runs, std::uint64_t unrecovered,
                               std::uint64_t faults_injected,
                               std::uint64_t fault_opportunities,
                               const std::string& json);
  /// The recorder's interned-string table (in id order) followed by every
  /// live event (oldest first).
  void record_trace(const trace::TraceRecorder& recorder);

  /// Low-level escape hatch: appends one record cell with an arbitrary
  /// schema id/version and payload (used by tests to craft artifacts).
  void append_record(std::uint16_t schema_id, std::uint16_t schema_version,
                     const std::vector<std::uint8_t>& payload);
  /// Allocation-free variant (the trace fast path serializes events into
  /// a stack buffer and appends through this).
  void append_record(std::uint16_t schema_id, std::uint16_t schema_version,
                     const std::uint8_t* payload, std::size_t size);

  // -------------------------------------------------------------- sealing
  /// Writes the footer (record count, chain hash, SHA-256).  No records
  /// may be appended afterwards.
  void finish();
  bool finished() const { return finished_; }

  const std::vector<std::uint8_t>& bytes() const { return buffer_; }
  std::uint64_t record_count() const { return record_count_; }
  std::uint64_t chain_hash() const { return chain_; }
  /// SHA-256 (hex) of the sealed artifact body; empty before finish().
  const std::string& sha256_hex() const { return sha256_hex_; }

  /// Writes the sealed artifact to \p path (binary).  Requires finish().
  bool write_file(const std::string& path) const;

 private:
  const SchemaRegistry& registry_;
  std::vector<std::uint8_t> buffer_;
  std::uint64_t record_count_ = 0;
  std::uint64_t chain_ = kChainSeed;
  bool finished_ = false;
  std::string sha256_hex_;
};

}  // namespace iecd::evidence
