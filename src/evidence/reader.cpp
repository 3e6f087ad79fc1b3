#include "evidence/reader.hpp"

#include <cstring>
#include <fstream>

#include "evidence/hash.hpp"
#include "util/statistics.hpp"

namespace iecd::evidence {

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kBadMagic: return "bad magic";
    case Status::kBadVersion: return "unsupported format version";
    case Status::kBadHeader: return "malformed header";
    case Status::kBadSchema: return "bad schema section";
    case Status::kTruncated: return "truncated";
    case Status::kCorruptRecord: return "corrupt record";
    case Status::kChainMismatch: return "record chain hash mismatch";
    case Status::kDigestMismatch: return "sha256 digest mismatch";
    case Status::kBadFooter: return "malformed footer";
  }
  return "unknown";
}

EvidenceReader::EvidenceReader(const SchemaRegistry& registry)
    : registry_(registry) {}

Status EvidenceReader::fail(Status s, const std::string& message) {
  error_ = message;
  return s;
}

Status EvidenceReader::parse_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return fail(Status::kTruncated, "cannot open " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  return parse(bytes.data(), bytes.size());
}

Status EvidenceReader::parse(const std::uint8_t* data, std::size_t size) {
  // ------------------------------------------------------------- header
  if (size < kHeaderSize) {
    return fail(Status::kBadHeader, "file shorter than header");
  }
  if (std::memcmp(data, kHeaderMagic, 8) != 0) {
    return fail(Status::kBadMagic, "header magic mismatch");
  }
  const std::uint16_t version = load_le<std::uint16_t>(data + 8);
  const std::uint16_t header_size = load_le<std::uint16_t>(data + 10);
  const std::uint32_t schema_count = load_le<std::uint32_t>(data + 12);
  if (version > kFormatVersion) {
    return fail(Status::kBadVersion,
                "format version " + std::to_string(version) +
                    " newer than supported " +
                    std::to_string(kFormatVersion));
  }
  if (header_size < kHeaderSize || header_size > size) {
    return fail(Status::kBadHeader, "bad header size");
  }
  std::size_t pos = header_size;

  // ------------------------------------------------------ schema section
  for (std::uint32_t i = 0; i < schema_count; ++i) {
    if (size - pos < 4) {
      return fail(Status::kBadSchema, "schema section truncated");
    }
    const std::uint32_t len = load_le<std::uint32_t>(data + pos);
    pos += 4;
    if (len > kMaxPayload || size - pos < len) {
      return fail(Status::kBadSchema, "schema cell length out of bounds");
    }
    Schema schema;
    if (!SchemaRegistry::decode(data + pos, len, schema)) {
      return fail(Status::kBadSchema, "malformed schema definition");
    }
    pos += len;
    // Known ids must be compatible with this reader; unknown ids only
    // mean their records will be skipped.
    if (const Schema* own = registry_.find(schema.id)) {
      std::string why;
      if (!SchemaRegistry::compatible(schema, *own, &why)) {
        return fail(Status::kBadSchema, why);
      }
    }
    schemas_.push_back(std::move(schema));
  }

  // ------------------------------------------------------- record stream
  std::uint64_t chain = kChainSeed;
  std::uint64_t records = 0;
  for (;;) {
    if (size - pos < 4) {
      return fail(Status::kTruncated, "file ends inside record stream");
    }
    const std::uint32_t len = load_le<std::uint32_t>(data + pos);
    if (len == kFooterSentinel) break;
    if (len > kMaxPayload) {
      return fail(Status::kCorruptRecord, "record length out of bounds");
    }
    if (size - pos < std::size_t{8} + len) {
      return fail(Status::kTruncated, "file ends inside a record cell");
    }
    const std::uint16_t schema_id = load_le<std::uint16_t>(data + pos + 4);
    const std::uint8_t* payload = data + pos + 8;
    const Schema* own = registry_.find(schema_id);
    if (own == nullptr) {
      ++unknown_records_;
    } else {
      if (len < own->min_payload_size() ||
          !decode_record(schema_id, payload, len)) {
        return fail(Status::kCorruptRecord,
                    "malformed '" + own->name + "' record payload");
      }
    }
    chain = chain_update(chain, data + pos, std::size_t{8} + len);
    ++records;
    pos += std::size_t{8} + len;
  }

  // ------------------------------------------------------------- footer
  const std::size_t footer_start = pos;
  if (size - pos < kFooterSize) {
    return fail(Status::kTruncated, "file ends inside footer");
  }
  pos += 4;  // sentinel
  if (std::memcmp(data + pos, kFooterMagic, 8) != 0) {
    return fail(Status::kBadFooter, "footer magic mismatch");
  }
  pos += 8;
  record_count_ = load_le<std::uint64_t>(data + pos);
  pos += 8;
  chain_hash_ = load_le<std::uint64_t>(data + pos);
  pos += 8;
  std::array<std::uint8_t, 32> stored_digest;
  std::memcpy(stored_digest.data(), data + pos, 32);
  pos += 32;
  if (load_le<std::uint32_t>(data + pos) != kEndMagic) {
    return fail(Status::kBadFooter, "end magic mismatch");
  }
  pos += 4;
  if (pos != size) {
    return fail(Status::kBadFooter, "trailing bytes after footer");
  }
  sha256_hex_ = hex(stored_digest);

  if (record_count_ != records) {
    return fail(Status::kBadFooter,
                "footer record count " + std::to_string(record_count_) +
                    " != stream count " + std::to_string(records));
  }
  if (chain_hash_ != chain) {
    return fail(Status::kChainMismatch,
                "chain hash " + hex64(chain) + " != footer " +
                    hex64(chain_hash_));
  }
  const auto digest = Sha256::of(data, footer_start);
  if (digest != stored_digest) {
    return fail(Status::kDigestMismatch,
                "body sha256 " + hex(digest) + " != footer " + sha256_hex_);
  }
  return Status::kOk;
}

bool EvidenceReader::decode_record(std::uint16_t schema_id,
                                   const std::uint8_t* payload,
                                   std::size_t size) {
  PayloadCursor cur(payload, size);
  switch (schema_id) {
    case kSchemaStringIntern: {
      std::uint32_t id = 0;
      std::string str;
      if (!cur.read(id) || !cur.read_str(str)) return false;
      strings_[id] = std::move(str);
      return true;
    }
    case kSchemaTraceEvent: {
      DecodedEvent ev;
      std::uint32_t category = 0, name = 0, track = 0;
      if (!cur.read(ev.type) || !cur.read(category) || !cur.read(name) ||
          !cur.read(track) || !cur.read(ev.time) || !cur.read(ev.duration) ||
          !cur.read(ev.seq) || !cur.read_f64(ev.value)) {
        return false;
      }
      const auto resolve = [this](std::uint32_t id) {
        const auto it = strings_.find(id);
        return it == strings_.end() ? std::string() : it->second;
      };
      ev.category = resolve(category);
      ev.name = resolve(name);
      ev.track = resolve(track);
      events_.push_back(std::move(ev));
      return true;
    }
    case kSchemaMetricCounter: {
      std::string name;
      std::uint64_t value = 0;
      if (!cur.read_str(name) || !cur.read(value)) return false;
      metrics_.counter(name).value += value;
      return true;
    }
    case kSchemaMetricGauge: {
      std::string name;
      double value = 0.0;
      if (!cur.read_str(name) || !cur.read_f64(value)) return false;
      metrics_.gauge(name) = value;
      return true;
    }
    case kSchemaMetricStats: {
      std::string name;
      std::uint64_t count = 0;
      double mean = 0, m2 = 0, sum = 0, min = 0, max = 0;
      if (!cur.read_str(name) || !cur.read(count) || !cur.read_f64(mean) ||
          !cur.read_f64(m2) || !cur.read_f64(sum) || !cur.read_f64(min) ||
          !cur.read_f64(max)) {
        return false;
      }
      metrics_.stats(name) = util::RunningStats::from_raw(
          static_cast<std::size_t>(count), mean, m2, sum, min, max);
      return true;
    }
    case kSchemaMetricSeries: {
      std::string name;
      std::uint32_t byte_len = 0;
      if (!cur.read_str(name) || !cur.read(byte_len)) return false;
      if (byte_len % 8 != 0) return false;
      const std::uint8_t* raw = nullptr;
      if (!cur.read_bytes(raw, byte_len)) return false;
      // Retired kind: the samples of an old artifact fold into the
      // series' histogram.
      auto& series = metrics_.series(name);
      for (std::uint32_t i = 0; i < byte_len; i += 8) {
        series.record(load_f64(raw + i));
      }
      return true;
    }
    case kSchemaMetricLatencyHistogram: {
      std::string name;
      util::LatencyHistogram h;
      if (!cur.read_str(name) || !read_histogram(cur, h)) return false;
      metrics_.series(name).merge(h);
      return true;
    }
    case kSchemaMetricHistogram: {
      std::string name;
      double lo = 0, hi = 0;
      std::uint32_t byte_len = 0;
      if (!cur.read_str(name) || !cur.read_f64(lo) || !cur.read_f64(hi) ||
          !cur.read(byte_len)) {
        return false;
      }
      if (byte_len % 8 != 0 || byte_len == 0) return false;
      const std::uint8_t* raw = nullptr;
      if (!cur.read_bytes(raw, byte_len)) return false;
      if (!(hi > lo)) return false;
      // Retired kind: validated like any record, its content dropped.
      ++retired_records_;
      return true;
    }
    case kSchemaBuildInfo: {
      util::BuildInfo info;
      if (!cur.read_str(info.git_sha) || !cur.read_str(info.compiler) ||
          !cur.read_str(info.flags) || !cur.read_str(info.build_type)) {
        return false;
      }
      build_infos_.push_back(std::move(info));
      return true;
    }
    case kSchemaRunMeta: {
      RunMeta meta;
      if (!cur.read_str(meta.name) || !cur.read(meta.index) ||
          !cur.read(meta.seed)) {
        return false;
      }
      run_metas_.push_back(std::move(meta));
      return true;
    }
    case kSchemaHealthSummary: {
      HealthSummary s;
      std::uint8_t healthy = 0;
      if (!cur.read_str(s.source) || !cur.read(s.runs) ||
          !cur.read(s.deadline_misses) || !cur.read(s.anomalies) ||
          !cur.read(healthy) || !cur.read_str(s.json)) {
        return false;
      }
      s.healthy = healthy != 0;
      health_summaries_.push_back(std::move(s));
      return true;
    }
    case kSchemaCampaignSummary: {
      CampaignSummary s;
      if (!cur.read_str(s.name) || !cur.read(s.seed) || !cur.read(s.runs) ||
          !cur.read(s.unrecovered) || !cur.read(s.faults_injected) ||
          !cur.read(s.fault_opportunities) || !cur.read_str(s.json)) {
        return false;
      }
      campaign_summaries_.push_back(std::move(s));
      return true;
    }
    case kSchemaCampaignCheckpoint: {
      CampaignCheckpointRecord c;
      std::uint32_t state_len = 0;
      if (!cur.read_str(c.name) || !cur.read(c.config_hash) ||
          !cur.read(c.total_runs) || !cur.read(c.watermark) ||
          !cur.read(state_len)) {
        return false;
      }
      const std::uint8_t* state = nullptr;
      if (!cur.read_bytes(state, state_len)) return false;
      c.state.assign(state, state + state_len);
      campaign_checkpoints_.push_back(std::move(c));
      return true;
    }
    default:
      // Registered in registry_ but not handled here — treat as skippable.
      ++unknown_records_;
      return true;
  }
}

trace::TraceRecorder EvidenceReader::rebuild_trace() const {
  std::size_t capacity = events_.size();
  if (capacity < 16) capacity = 16;
  trace::TraceRecorder recorder(capacity);
  // Re-intern in original id order so event name ids line up.
  for (const auto& [id, str] : strings_) {
    recorder.intern(str);
  }
  for (const auto& ev : events_) {
    const auto type = static_cast<trace::EventType>(ev.type);
    switch (type) {
      case trace::EventType::kSpanBegin:
        recorder.span_begin(ev.category, ev.name, ev.track, ev.time,
                            ev.value);
        break;
      case trace::EventType::kSpanEnd:
        recorder.span_end(ev.category, ev.name, ev.track, ev.time, ev.value);
        break;
      case trace::EventType::kSpanComplete:
        recorder.span_complete(ev.category, ev.name, ev.track,
                               ev.time, ev.time + ev.duration, ev.value);
        break;
      case trace::EventType::kCounter:
        recorder.counter(ev.category, ev.name, ev.track, ev.time, ev.value);
        break;
      case trace::EventType::kInstant:
      default:
        recorder.instant(ev.category, ev.name, ev.track, ev.time, ev.value);
        break;
    }
  }
  return recorder;
}

}  // namespace iecd::evidence
