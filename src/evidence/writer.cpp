#include "evidence/writer.hpp"

#include <cassert>
#include <fstream>

namespace iecd::evidence {

EvidenceWriter::EvidenceWriter(const SchemaRegistry& registry)
    : registry_(registry) {
  // Header.  (Byte-wise append: gcc-12 misdiagnoses a char[8] range
  // insert into a uint8 vector as a stringop overflow.)
  for (char c : kHeaderMagic) buffer_.push_back(static_cast<std::uint8_t>(c));
  store_le<std::uint16_t>(buffer_, kFormatVersion);
  store_le<std::uint16_t>(buffer_, kHeaderSize);
  store_le<std::uint32_t>(buffer_,
                          static_cast<std::uint32_t>(registry_.size()));
  store_le<std::uint64_t>(buffer_, 0);  // flags
  store_le<std::uint64_t>(buffer_, 0);  // reserved
  // Schema section, id order (std::map).
  for (const auto& [id, schema] : registry_.schemas()) {
    SchemaRegistry::encode(schema, buffer_);
  }
}

void EvidenceWriter::append_record(std::uint16_t schema_id,
                                   std::uint16_t schema_version,
                                   const std::uint8_t* payload,
                                   std::size_t size) {
  assert(!finished_ && "append_record after finish()");
  const std::size_t cell_start = buffer_.size();
  buffer_.resize(cell_start + kCellHeaderSize + size);
  std::uint8_t* p = buffer_.data() + cell_start;
  p = store_le_at<std::uint32_t>(p, static_cast<std::uint32_t>(size));
  p = store_le_at<std::uint16_t>(p, schema_id);
  p = store_le_at<std::uint16_t>(p, schema_version);
  if (size > 0) std::memcpy(p, payload, size);
  chain_ = chain_update(chain_, buffer_.data() + cell_start,
                        kCellHeaderSize + size);
  ++record_count_;
}

void EvidenceWriter::append_record(std::uint16_t schema_id,
                                   std::uint16_t schema_version,
                                   const std::vector<std::uint8_t>& payload) {
  append_record(schema_id, schema_version, payload.data(), payload.size());
}

void EvidenceWriter::record_build_info() {
  record_build_info(util::build_info());
}

void EvidenceWriter::record_build_info(const util::BuildInfo& info) {
  std::vector<std::uint8_t> p;
  store_str(p, info.git_sha);
  store_str(p, info.compiler);
  store_str(p, info.flags);
  store_str(p, info.build_type);
  append_record(kSchemaBuildInfo, 1, p);
}

void EvidenceWriter::record_run_meta(const std::string& name,
                                     std::uint64_t index, std::uint64_t seed) {
  std::vector<std::uint8_t> p;
  store_str(p, name);
  store_le<std::uint64_t>(p, index);
  store_le<std::uint64_t>(p, seed);
  append_record(kSchemaRunMeta, 1, p);
}

void EvidenceWriter::record_metrics(const trace::MetricsRegistry& metrics) {
  for (const auto& [name, counter] : metrics.counters()) {
    std::vector<std::uint8_t> p;
    store_str(p, name);
    store_le<std::uint64_t>(p, counter.value);
    append_record(kSchemaMetricCounter, 1, p);
  }
  for (const auto& [name, value] : metrics.gauges()) {
    std::vector<std::uint8_t> p;
    store_str(p, name);
    store_f64(p, value);
    append_record(kSchemaMetricGauge, 1, p);
  }
  for (const auto& [name, stats] : metrics.all_stats()) {
    std::vector<std::uint8_t> p;
    store_str(p, name);
    store_le<std::uint64_t>(p, stats.count());
    store_f64(p, stats.mean());
    store_f64(p, stats.m2());
    store_f64(p, stats.sum());
    store_f64(p, stats.min());
    store_f64(p, stats.max());
    append_record(kSchemaMetricStats, 1, p);
  }
  for (const auto& [name, series] : metrics.all_series()) {
    std::vector<std::uint8_t> p;
    store_str(p, name);
    store_histogram(p, series);
    append_record(kSchemaMetricLatencyHistogram, 1, p);
  }
}

void EvidenceWriter::record_health(const obs::HealthReport& health) {
  std::vector<std::uint8_t> p;
  store_str(p, health.source);
  store_le<std::uint64_t>(p, health.runs);
  store_le<std::uint64_t>(p, health.deadline_misses());
  store_le<std::uint64_t>(p, health.anomaly_count());
  store_le<std::uint8_t>(p, health.healthy() ? 1 : 0);
  store_str(p, health.to_json());
  append_record(kSchemaHealthSummary, 1, p);
}

void EvidenceWriter::record_campaign_summary(
    const std::string& name, std::uint64_t seed, std::uint64_t runs,
    std::uint64_t unrecovered, std::uint64_t faults_injected,
    std::uint64_t fault_opportunities, const std::string& json) {
  std::vector<std::uint8_t> p;
  store_str(p, name);
  store_le<std::uint64_t>(p, seed);
  store_le<std::uint64_t>(p, runs);
  store_le<std::uint64_t>(p, unrecovered);
  store_le<std::uint64_t>(p, faults_injected);
  store_le<std::uint64_t>(p, fault_opportunities);
  store_str(p, json);
  append_record(kSchemaCampaignSummary, 1, p);
}

void EvidenceWriter::record_trace(const trace::TraceRecorder& recorder) {
  // One up-front reservation for the whole trace section keeps the event
  // loop free of vector growth.
  constexpr std::size_t kEventPayload = 1 + 4 + 4 + 4 + 8 + 8 + 8 + 8;
  std::size_t intern_bytes = 0;
  for (trace::NameId id = 0; id < recorder.interned_count(); ++id) {
    intern_bytes +=
        kCellHeaderSize + 4 + 4 + recorder.string_at(id).size();
  }
  buffer_.reserve(buffer_.size() + intern_bytes +
                  recorder.size() * (kCellHeaderSize + kEventPayload));

  for (trace::NameId id = 0; id < recorder.interned_count(); ++id) {
    std::vector<std::uint8_t> p;
    store_le<std::uint32_t>(p, id);
    store_str(p, recorder.string_at(id));
    append_record(kSchemaStringIntern, 1, p);
  }
  recorder.for_each([this](const trace::Event& ev) {
    std::uint8_t cell[kEventPayload];
    std::uint8_t* p = cell;
    p = store_le_at<std::uint8_t>(p, static_cast<std::uint8_t>(ev.type));
    p = store_le_at<std::uint32_t>(p, ev.category);
    p = store_le_at<std::uint32_t>(p, ev.name);
    p = store_le_at<std::uint32_t>(p, ev.track);
    p = store_le_at<std::int64_t>(p, ev.time);
    p = store_le_at<std::int64_t>(p, ev.duration);
    p = store_le_at<std::uint64_t>(p, ev.seq);
    store_f64_at(p, ev.value);
    append_record(kSchemaTraceEvent, 1, cell, kEventPayload);
  });
}

void EvidenceWriter::finish() {
  assert(!finished_);
  finished_ = true;
  const auto digest = Sha256::of(buffer_.data(), buffer_.size());
  sha256_hex_ = hex(digest);
  store_le<std::uint32_t>(buffer_, kFooterSentinel);
  for (char c : kFooterMagic) buffer_.push_back(static_cast<std::uint8_t>(c));
  store_le<std::uint64_t>(buffer_, record_count_);
  store_le<std::uint64_t>(buffer_, chain_);
  buffer_.insert(buffer_.end(), digest.begin(), digest.end());
  store_le<std::uint32_t>(buffer_, kEndMagic);
}

bool EvidenceWriter::write_file(const std::string& path) const {
  if (!finished_) return false;
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  os.write(reinterpret_cast<const char*>(buffer_.data()),
           static_cast<std::streamsize>(buffer_.size()));
  return os.good();
}

}  // namespace iecd::evidence
