#include "evidence/schema.hpp"

namespace iecd::evidence {

std::size_t field_fixed_size(FieldType t) {
  switch (t) {
    case FieldType::kU8: return 1;
    case FieldType::kU16: return 2;
    case FieldType::kU32: return 4;
    case FieldType::kU64: return 8;
    case FieldType::kI64: return 8;
    case FieldType::kF64: return 8;
    case FieldType::kString: return 0;
    case FieldType::kBytes: return 0;
  }
  return 0;
}

std::size_t Schema::min_payload_size() const {
  std::size_t total = 0;
  for (const auto& f : fields) {
    const std::size_t fixed = field_fixed_size(f.type);
    total += fixed > 0 ? fixed : 4;  // variable fields: length prefix
  }
  return total;
}

void SchemaRegistry::add(Schema schema) {
  schemas_[schema.id] = std::move(schema);
}

const Schema* SchemaRegistry::find(std::uint16_t id) const {
  const auto it = schemas_.find(id);
  return it == schemas_.end() ? nullptr : &it->second;
}

bool SchemaRegistry::compatible(const Schema& artifact, const Schema& reader,
                                std::string* why) {
  const auto fail = [&](const std::string& message) {
    if (why) *why = "schema " + std::to_string(artifact.id) + " (" +
                    artifact.name + "): " + message;
    return false;
  };
  if (artifact.id != reader.id) return fail("id mismatch");
  if (artifact.name != reader.name) {
    return fail("name differs from reader's '" + reader.name + "'");
  }
  if (artifact.version > reader.version) {
    return fail("version " + std::to_string(artifact.version) +
                " newer than reader's " + std::to_string(reader.version));
  }
  if (artifact.fields.size() > reader.fields.size()) {
    return fail("more fields than reader knows");
  }
  for (std::size_t i = 0; i < artifact.fields.size(); ++i) {
    if (!(artifact.fields[i] == reader.fields[i])) {
      return fail("field " + std::to_string(i) + " ('" +
                  artifact.fields[i].name + "') differs from reader's '" +
                  reader.fields[i].name + "'");
    }
  }
  return true;
}

const SchemaRegistry& SchemaRegistry::builtin() {
  static const SchemaRegistry registry = [] {
    using FT = FieldType;
    SchemaRegistry r;
    r.add({kSchemaStringIntern, 1, "string_intern",
           {{FT::kU32, "id"}, {FT::kString, "str"}}});
    r.add({kSchemaTraceEvent, 1, "trace_event",
           {{FT::kU8, "type"},
            {FT::kU32, "category"},
            {FT::kU32, "name"},
            {FT::kU32, "track"},
            {FT::kI64, "time_ns"},
            {FT::kI64, "dur_ns"},
            {FT::kU64, "seq"},
            {FT::kF64, "value"}}});
    r.add({kSchemaMetricCounter, 1, "metric_counter",
           {{FT::kString, "name"}, {FT::kU64, "value"}}});
    r.add({kSchemaMetricGauge, 1, "metric_gauge",
           {{FT::kString, "name"}, {FT::kF64, "value"}}});
    r.add({kSchemaMetricStats, 1, "metric_stats",
           {{FT::kString, "name"},
            {FT::kU64, "count"},
            {FT::kF64, "mean"},
            {FT::kF64, "m2"},
            {FT::kF64, "sum"},
            {FT::kF64, "min"},
            {FT::kF64, "max"}}});
    // Retired (series travel as metric_latency_histogram now), still
    // registered and read: an old artifact's samples fold into the
    // series' histogram.
    r.add({kSchemaMetricSeries, 1, "metric_series",
           {{FT::kString, "name"}, {FT::kBytes, "samples_f64"}}});
    // Retired (the fixed-bin kind; registry histograms are id 13), still
    // registered so old artifacts carrying the kind still verify.
    r.add({kSchemaMetricHistogram, 1, "metric_histogram",
           {{FT::kString, "name"},
            {FT::kF64, "lo"},
            {FT::kF64, "hi"},
            {FT::kBytes, "bin_counts_u64"}}});
    r.add({kSchemaBuildInfo, 1, "build_info",
           {{FT::kString, "git_sha"},
            {FT::kString, "compiler"},
            {FT::kString, "flags"},
            {FT::kString, "build_type"}}});
    r.add({kSchemaRunMeta, 1, "run_meta",
           {{FT::kString, "name"},
            {FT::kU64, "index"},
            {FT::kU64, "seed"}}});
    r.add({kSchemaHealthSummary, 1, "health_summary",
           {{FT::kString, "source"},
            {FT::kU64, "runs"},
            {FT::kU64, "deadline_misses"},
            {FT::kU64, "anomalies"},
            {FT::kU8, "healthy"},
            {FT::kString, "json"}}});
    r.add({kSchemaCampaignSummary, 1, "campaign_summary",
           {{FT::kString, "name"},
            {FT::kU64, "seed"},
            {FT::kU64, "runs"},
            {FT::kU64, "unrecovered"},
            {FT::kU64, "faults_injected"},
            {FT::kU64, "fault_opportunities"},
            {FT::kString, "json"}}});
    r.add({kSchemaCampaignCheckpoint, 1, "campaign_checkpoint",
           {{FT::kString, "name"},
            {FT::kU64, "config_hash"},
            {FT::kU64, "total_runs"},
            {FT::kU64, "watermark"},
            {FT::kBytes, "state"}}});
    r.add({kSchemaMetricLatencyHistogram, 1, "metric_latency_histogram",
           {{FT::kString, "name"},
            {FT::kU32, "first_bucket"},
            {FT::kBytes, "counts_u64"},
            {FT::kU64, "count"},
            {FT::kF64, "sum"},
            {FT::kF64, "min"},
            {FT::kF64, "max"}}});
    return r;
  }();
  return registry;
}

void SchemaRegistry::encode(const Schema& schema,
                            std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> payload;
  store_le<std::uint16_t>(payload, schema.id);
  store_le<std::uint16_t>(payload, schema.version);
  store_str(payload, schema.name);
  store_le<std::uint16_t>(payload,
                          static_cast<std::uint16_t>(schema.fields.size()));
  for (const auto& f : schema.fields) {
    store_le<std::uint8_t>(payload, static_cast<std::uint8_t>(f.type));
    store_str(payload, f.name);
  }
  store_le<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

bool SchemaRegistry::decode(const std::uint8_t* payload, std::size_t size,
                            Schema& out) {
  PayloadCursor cur(payload, size);
  std::uint16_t field_count = 0;
  if (!cur.read(out.id) || !cur.read(out.version) ||
      !cur.read_str(out.name) || !cur.read(field_count)) {
    return false;
  }
  out.fields.clear();
  out.fields.reserve(field_count);
  for (std::uint16_t i = 0; i < field_count; ++i) {
    std::uint8_t type = 0;
    SchemaField field;
    if (!cur.read(type) || !cur.read_str(field.name)) return false;
    if (type < static_cast<std::uint8_t>(FieldType::kU8) ||
        type > static_cast<std::uint8_t>(FieldType::kBytes)) {
      return false;
    }
    field.type = static_cast<FieldType>(type);
    out.fields.push_back(std::move(field));
  }
  return cur.done();
}

}  // namespace iecd::evidence
