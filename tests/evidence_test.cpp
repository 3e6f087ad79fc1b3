// Evidence recorder tests: format round-trips, golden byte-identity,
// schema-evolution rules, tamper/truncation fuzz (this file runs under the
// ASan job), and campaign-evidence thread invariance.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "evidence/hash.hpp"
#include "evidence/reader.hpp"
#include "evidence/schema.hpp"
#include "evidence/sink.hpp"
#include "evidence/verify.hpp"
#include "evidence/writer.hpp"
#include "fault/campaign.hpp"
#include "fault/rng.hpp"
#include "obs/health_report.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/build_info.hpp"

namespace iecd::evidence {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> read_file_bytes(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

/// Fresh scratch directory under the test working dir.
fs::path scratch_dir(const std::string& name) {
  fs::path dir = fs::path("evidence_test_tmp") / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A registry-of-everything workload: every metric kind plus a small
/// trace, deterministic so the byte-identity tests can hold exact.
void fill_workload(trace::TraceRecorder& rec, trace::MetricsRegistry& m) {
  for (int i = 0; i < 64; ++i) {
    const auto t = static_cast<sim::SimTime>(1000 + i * 250);
    switch (i % 3) {
      case 0:
        rec.span_complete("sim", "step", "cpu", t, t + 120, i * 0.5);
        break;
      case 1:
        rec.counter("sim", "queue", "bus", t, static_cast<double>(i % 7));
        break;
      default:
        rec.instant("sim", "mark", "pil", t);
        break;
    }
  }
  m.counter("steps").value = 64;
  m.gauge("iae") = 6.375;
  auto& s = m.stats("exec_us");
  for (int i = 0; i < 32; ++i) s.add(10.0 + (i % 5));
  auto& series = m.series("rtt_us");
  for (int i = 0; i < 16; ++i) series.record(800.0 + i);
  // 0.75 .. 192: a series spread over several octaves, so the histogram
  // codec writes a multi-bucket range.
  auto& spread = m.series("spread_us");
  for (int i = 1; i <= 16; ++i) spread.record(0.75 * i * i);
}

/// Payload of a retired id-7 metric_histogram record (name, lo, hi, u64
/// bin counts), exactly as writers emitted it before the kind was retired.
std::vector<std::uint8_t> legacy_histogram_payload(double lo = 0.0,
                                                   double hi = 100.0) {
  std::vector<std::uint8_t> p;
  store_str(p, "lat_us");
  store_f64(p, lo);
  store_f64(p, hi);
  store_le<std::uint32_t>(p, 8 * 8);
  for (std::uint64_t i = 0; i < 8; ++i) store_le<std::uint64_t>(p, 5 + i);
  return p;
}

/// Payload of a retired id-6 metric_series record (name, f64 samples),
/// exactly as writers emitted it before series became histograms.
std::vector<std::uint8_t> legacy_series_payload(
    const std::vector<double>& samples) {
  std::vector<std::uint8_t> p;
  store_str(p, "rtt_us");
  store_le<std::uint32_t>(p, static_cast<std::uint32_t>(samples.size() * 8));
  for (double x : samples) store_f64(p, x);
  return p;
}

/// One fully loaded sealed artifact (build info, run meta, metrics, a
/// retired histogram record, health, trace).
std::vector<std::uint8_t> build_full_artifact() {
  trace::TraceRecorder rec(128);
  trace::MetricsRegistry m;
  fill_workload(rec, m);
  obs::HealthReport health;
  health.source = "evidence_test";
  EvidenceWriter w;
  w.record_build_info();
  w.record_run_meta("evidence_test", 3, 42);
  w.record_metrics(m);
  w.append_record(kSchemaMetricHistogram, 1, legacy_histogram_payload());
  w.record_health(health);
  w.record_trace(rec);
  w.finish();
  return w.bytes();
}

// ---------------------------------------------------------------- hashing

TEST(EvidenceHash, Sha256FipsVectors) {
  // FIPS 180-4 known answers.
  const std::uint8_t abc[] = {'a', 'b', 'c'};
  EXPECT_EQ(hex(Sha256::of(abc, 3)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex(Sha256::of(abc, 0)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const std::vector<std::uint8_t> million(1000000, 'a');
  EXPECT_EQ(hex(Sha256::of(million.data(), million.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(EvidenceHash, Sha256StreamingMatchesOneShot) {
  std::vector<std::uint8_t> data(4099);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const auto oneshot = Sha256::of(data.data(), data.size());
  // Awkward chunk sizes straddle the 64-byte block boundary.
  for (std::size_t chunk : {1u, 7u, 63u, 64u, 65u, 1000u}) {
    Sha256 h;
    for (std::size_t pos = 0; pos < data.size(); pos += chunk) {
      h.update(data.data() + pos, std::min(chunk, data.size() - pos));
    }
    EXPECT_EQ(h.digest(), oneshot) << "chunk=" << chunk;
  }
  // The dispatch decision is stable within one process.
  EXPECT_EQ(Sha256::hardware_accelerated(), Sha256::hardware_accelerated());
}

TEST(EvidenceHash, CellHashDeterministicAndSensitive) {
  const std::uint8_t a[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::uint8_t b[] = {1, 2, 3, 4, 5, 6, 7, 8, 10};
  EXPECT_EQ(cell_hash64(a, sizeof a), cell_hash64(a, sizeof a));
  EXPECT_NE(cell_hash64(a, sizeof a), cell_hash64(b, sizeof b));
  // Length is part of the hash: a zero-padded tail must not collide with
  // explicit zero bytes.
  const std::uint8_t c[] = {1, 2, 3, 0};
  EXPECT_NE(cell_hash64(c, 3), cell_hash64(c, 4));
  // The chain is order-sensitive even over identical cell sets.
  const std::uint64_t ab =
      chain_update(chain_update(kChainSeed, a, sizeof a), b, sizeof b);
  const std::uint64_t ba =
      chain_update(chain_update(kChainSeed, b, sizeof b), a, sizeof a);
  EXPECT_NE(ab, ba);
}

// ----------------------------------------------------------------- schema

TEST(EvidenceSchema, BuiltinEncodeDecodeRoundTrip) {
  const auto& reg = SchemaRegistry::builtin();
  EXPECT_EQ(reg.size(), 13u);  // + kSchemaMetricLatencyHistogram
  for (const auto& [id, schema] : reg.schemas()) {
    std::vector<std::uint8_t> cell;
    SchemaRegistry::encode(schema, cell);
    // Cell = u32 length + payload.
    ASSERT_GE(cell.size(), 4u);
    const auto len = load_le<std::uint32_t>(cell.data());
    ASSERT_EQ(cell.size(), 4u + len);
    Schema out;
    ASSERT_TRUE(SchemaRegistry::decode(cell.data() + 4, len, out));
    EXPECT_EQ(out.id, schema.id);
    EXPECT_EQ(out.version, schema.version);
    EXPECT_EQ(out.name, schema.name);
    EXPECT_EQ(out.fields, schema.fields);
  }
}

TEST(EvidenceSchema, CompatibilityRules) {
  Schema reader;
  reader.id = 3;
  reader.version = 2;
  reader.name = "metric_counter";
  reader.fields = {{FieldType::kString, "name"},
                   {FieldType::kU64, "value"},
                   {FieldType::kU64, "added_later"}};

  Schema artifact = reader;
  EXPECT_TRUE(SchemaRegistry::compatible(artifact, reader));

  // Old writer: lower version, field prefix — accepted.
  artifact.version = 1;
  artifact.fields.pop_back();
  EXPECT_TRUE(SchemaRegistry::compatible(artifact, reader));

  // Newer artifact than reader — rejected.
  Schema newer = reader;
  newer.version = 3;
  newer.fields.push_back({FieldType::kF64, "from_the_future"});
  std::string why;
  EXPECT_FALSE(SchemaRegistry::compatible(newer, reader, &why));
  EXPECT_FALSE(why.empty());

  // A renamed field breaks the prefix rule.
  Schema renamed = reader;
  renamed.fields[1].name = "count";
  EXPECT_FALSE(SchemaRegistry::compatible(renamed, reader));

  // A changed field type breaks it too.
  Schema retyped = reader;
  retyped.fields[1].type = FieldType::kF64;
  EXPECT_FALSE(SchemaRegistry::compatible(retyped, reader));

  // Same id but different record name is a different schema.
  Schema othername = reader;
  othername.name = "metric_gauge";
  EXPECT_FALSE(SchemaRegistry::compatible(othername, reader));
}

// ------------------------------------------------------------- round-trip

TEST(EvidenceRoundTrip, EverythingDecodesExactly) {
  trace::TraceRecorder rec(128);
  trace::MetricsRegistry m;
  fill_workload(rec, m);
  obs::HealthReport health;
  health.source = "evidence_test";
  health.runs = 3;

  EvidenceWriter w;
  w.record_build_info();
  w.record_run_meta("evidence_test", 3, 42);
  w.record_metrics(m);
  w.append_record(kSchemaMetricHistogram, 1, legacy_histogram_payload());
  w.record_health(health);
  w.record_trace(rec);
  w.finish();

  EvidenceReader r;
  ASSERT_EQ(r.parse(w.bytes()), Status::kOk) << r.error();
  EXPECT_EQ(r.record_count(), w.record_count());
  EXPECT_EQ(r.chain_hash(), w.chain_hash());
  EXPECT_EQ(r.sha256_hex(), w.sha256_hex());
  EXPECT_EQ(r.unknown_records(), 0u);
  EXPECT_EQ(r.retired_records(), 1u);

  // Run meta + build info.
  ASSERT_EQ(r.run_metas().size(), 1u);
  EXPECT_EQ(r.run_metas()[0].name, "evidence_test");
  EXPECT_EQ(r.run_metas()[0].index, 3u);
  EXPECT_EQ(r.run_metas()[0].seed, 42u);
  ASSERT_EQ(r.build_infos().size(), 1u);
  EXPECT_EQ(r.build_infos()[0].git_sha, util::build_info().git_sha);
  EXPECT_EQ(r.build_infos()[0].compiler, util::build_info().compiler);

  // Metrics: doubles travel as bit patterns, so equality is exact.
  const auto& rm = r.metrics();
  ASSERT_NE(rm.find_counter("steps"), nullptr);
  EXPECT_EQ(rm.find_counter("steps")->value, 64u);
  ASSERT_NE(rm.find_gauge("iae"), nullptr);
  EXPECT_EQ(*rm.find_gauge("iae"), 6.375);
  const auto* stats = rm.find_stats("exec_us");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count(), m.stats("exec_us").count());
  EXPECT_EQ(stats->mean(), m.stats("exec_us").mean());
  EXPECT_EQ(stats->min(), m.stats("exec_us").min());
  EXPECT_EQ(stats->max(), m.stats("exec_us").max());
  for (const char* name : {"rtt_us", "spread_us"}) {
    const auto* series = rm.find_series(name);
    ASSERT_NE(series, nullptr) << name;
    EXPECT_EQ(*series, m.series(name)) << name;
  }

  // Health summary headline.
  ASSERT_EQ(r.health_summaries().size(), 1u);
  EXPECT_EQ(r.health_summaries()[0].source, "evidence_test");
  EXPECT_EQ(r.health_summaries()[0].runs, 3u);
  EXPECT_TRUE(r.health_summaries()[0].healthy);
  EXPECT_EQ(r.health_summaries()[0].json, health.to_json());

  // Trace: every event decoded with resolved names, in order.
  ASSERT_EQ(r.events().size(), rec.size());
  EXPECT_EQ(r.events()[0].category, "sim");
  EXPECT_EQ(r.events()[0].name, "step");
  EXPECT_EQ(r.events()[0].track, "cpu");
  EXPECT_EQ(r.events()[0].time, 1000);
  EXPECT_EQ(r.events()[0].duration, 120);
  EXPECT_EQ(r.events()[0].value, 0.0);
}

TEST(EvidenceRoundTrip, GoldenByteIdentity) {
  // Recording the same run twice — different writer objects, same input —
  // must produce the same bytes and digests.  This is the rebuild half of
  // the golden-file guarantee; the sweep half is CampaignThreadInvariance.
  const auto a = build_full_artifact();
  const auto b = build_full_artifact();
  EXPECT_EQ(a, b);

  EvidenceReader ra, rb;
  ASSERT_EQ(ra.parse(a), Status::kOk);
  ASSERT_EQ(rb.parse(b), Status::kOk);
  EXPECT_EQ(ra.sha256_hex(), rb.sha256_hex());
  EXPECT_EQ(ra.chain_hash(), rb.chain_hash());
}

TEST(EvidenceRoundTrip, RebuildTraceReexportsIdentically) {
  trace::TraceRecorder rec(128);
  trace::MetricsRegistry m;
  fill_workload(rec, m);
  EvidenceWriter w;
  w.record_trace(rec);
  w.finish();

  EvidenceReader r;
  ASSERT_EQ(r.parse(w.bytes()), Status::kOk) << r.error();
  const trace::TraceRecorder rebuilt = r.rebuild_trace();
  // Nothing dropped, so the Chrome-trace and CSV exports of the rebuilt
  // recorder are byte-identical to exporting the live one.
  EXPECT_EQ(trace::to_chrome_trace(rebuilt), trace::to_chrome_trace(rec));
  EXPECT_EQ(trace::to_csv(rebuilt), trace::to_csv(rec));
}

// ------------------------------------------------------- schema evolution

TEST(EvidenceEvolution, UnknownSchemaRecordsAreSkippedAndCounted) {
  // A future writer with a record kind this reader has never heard of.
  SchemaRegistry future;
  for (const auto& [id, schema] : SchemaRegistry::builtin().schemas()) {
    future.add(schema);
  }
  Schema extra;
  extra.id = 42;
  extra.version = 1;
  extra.name = "from_the_future";
  extra.fields = {{FieldType::kU64, "value"}};
  future.add(extra);

  EvidenceWriter w(future);
  w.record_run_meta("future", 0, 1);
  std::vector<std::uint8_t> payload;
  store_le<std::uint64_t>(payload, 7);
  w.append_record(42, 1, payload);
  w.record_run_meta("future", 1, 2);
  w.finish();

  EvidenceReader r;  // built-in registry: knows nothing about id 42
  ASSERT_EQ(r.parse(w.bytes()), Status::kOk) << r.error();
  EXPECT_EQ(r.unknown_records(), 1u);
  ASSERT_EQ(r.run_metas().size(), 2u);  // records around it still decode
  EXPECT_EQ(r.run_metas()[1].seed, 2u);
}

TEST(EvidenceEvolution, RetiredHistogramRecordStillVerifies) {
  // Id 7 (metric_histogram) has no writer any more but stays registered,
  // so the embedded schema section is unchanged and old artifacts that
  // carry the kind still verify: parsed, bounds-checked, then skipped.
  EvidenceWriter w;
  w.record_run_meta("legacy", 0, 1);
  w.append_record(kSchemaMetricHistogram, 1, legacy_histogram_payload());
  w.record_run_meta("legacy", 1, 2);
  w.finish();

  EvidenceReader r;
  ASSERT_EQ(r.parse(w.bytes()), Status::kOk) << r.error();
  EXPECT_EQ(r.retired_records(), 1u);
  EXPECT_EQ(r.unknown_records(), 0u);
  EXPECT_TRUE(r.metrics().empty());
  ASSERT_EQ(r.run_metas().size(), 2u);  // records around it still decode
  EXPECT_EQ(r.run_metas()[1].seed, 2u);

  const fs::path path = scratch_dir("retired") / "legacy.evd";
  ASSERT_TRUE(w.write_file(path.string()));
  const auto vr = verify_artifact_file(path.string());
  EXPECT_TRUE(vr.ok) << vr.summary();
  EXPECT_EQ(vr.sha256_hex, w.sha256_hex());

  // Its payload is still validated: an inverted bin range is corrupt.
  EvidenceWriter bad;
  bad.append_record(kSchemaMetricHistogram, 1,
                    legacy_histogram_payload(100.0, 0.0));
  bad.finish();
  EvidenceReader rb;
  EXPECT_EQ(rb.parse(bad.bytes()), Status::kCorruptRecord);
}

TEST(EvidenceEvolution, RetiredSeriesRecordStillVerifiesAndReads) {
  // Id 6 (metric_series) carried every raw sample before registry series
  // became histograms.  It stays registered, and its samples fold into
  // the series' histogram, so old artifacts still verify and read.
  const std::vector<double> samples = {250.0, 300.5, 1200.0, 0.0, 275.25};
  EvidenceWriter w;
  w.record_run_meta("legacy", 0, 1);
  w.append_record(kSchemaMetricSeries, 1, legacy_series_payload(samples));
  w.finish();

  EvidenceReader r;
  ASSERT_EQ(r.parse(w.bytes()), Status::kOk) << r.error();
  EXPECT_EQ(r.unknown_records(), 0u);
  EXPECT_EQ(r.retired_records(), 0u);  // read, not skipped
  util::LatencyHistogram expected;
  for (double x : samples) expected.record(x);
  const auto* series = r.metrics().find_series("rtt_us");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(*series, expected);

  const fs::path path = scratch_dir("retired_series") / "legacy.evd";
  ASSERT_TRUE(w.write_file(path.string()));
  const auto vr = verify_artifact_file(path.string());
  EXPECT_TRUE(vr.ok) << vr.summary();

  // A byte length that is not whole samples is corrupt.
  auto payload = legacy_series_payload(samples);
  payload.pop_back();
  EvidenceWriter bad;
  bad.append_record(kSchemaMetricSeries, 1, payload);
  bad.finish();
  EvidenceReader rb;
  EXPECT_EQ(rb.parse(bad.bytes()), Status::kCorruptRecord);
}

TEST(EvidenceEvolution, OldArtifactNewReaderAndViceVersa) {
  const auto bytes = build_full_artifact();

  // Reader whose run_meta schema grew a field (version bump): the old
  // artifact's field list is a prefix — accepted.
  SchemaRegistry grown;
  for (const auto& [id, schema] : SchemaRegistry::builtin().schemas()) {
    Schema s = schema;
    if (id == kSchemaRunMeta) {
      s.version = 2;
      s.fields.push_back({FieldType::kU64, "added_in_v2"});
    }
    grown.add(s);
  }
  EvidenceReader newer(grown);
  EXPECT_EQ(newer.parse(bytes), Status::kOk) << newer.error();

  // Reader whose run_meta schema is OLDER than the artifact's — rejected
  // at the schema section (the artifact version exceeds the reader's).
  SchemaRegistry shrunk;
  for (const auto& [id, schema] : SchemaRegistry::builtin().schemas()) {
    Schema s = schema;
    if (id == kSchemaRunMeta) {
      s.version = 0;
    }
    shrunk.add(s);
  }
  EvidenceReader older(shrunk);
  EXPECT_EQ(older.parse(bytes), Status::kBadSchema);
}

// --------------------------------------------------------- tamper / fuzz

TEST(EvidenceTamper, ImpossibleHistogramStateIsCorrupt) {
  // A metric_latency_histogram record whose state no histogram can have
  // is rejected at the record, not folded into the registry.
  const auto record = [](std::uint32_t first,
                         const std::vector<std::uint64_t>& counts,
                         std::uint64_t count, double sum, double min,
                         double max) {
    std::vector<std::uint8_t> p;
    store_str(p, "rtt_us");
    store_le<std::uint32_t>(p, first);
    store_le<std::uint32_t>(p, static_cast<std::uint32_t>(counts.size() * 8));
    for (std::uint64_t c : counts) store_le<std::uint64_t>(p, c);
    store_le<std::uint64_t>(p, count);
    store_f64(p, sum);
    store_f64(p, min);
    store_f64(p, max);
    EvidenceWriter w;
    w.append_record(kSchemaMetricLatencyHistogram, 1, p);
    w.finish();
    EvidenceReader r;
    return r.parse(w.bytes());
  };
  const std::size_t buckets = util::LatencyHistogram::kBucketCount;
  const auto last = static_cast<std::uint32_t>(buckets - 1);
  // Bucket 900 holds [280, 288), bucket 901 [288, 296); the last bucket
  // everything from 2^40 on, inf included.
  EXPECT_EQ(record(900, {2, 1}, 3, 853.0, 281.0, 290.0), Status::kOk);
  EXPECT_EQ(record(last, {3}, 3, HUGE_VAL, 0x1p41, HUGE_VAL), Status::kOk);
  // The range runs past the last bucket.
  EXPECT_EQ(record(last, {2, 1}, 3, 853.0, 281.0, 290.0),
            Status::kCorruptRecord);
  EXPECT_EQ(record(0xFFFFFFFFu, {3}, 3, 853.0, 281.0, 290.0),
            Status::kCorruptRecord);
  // The bucket counts do not sum to count, or wrap around to it.
  EXPECT_EQ(record(900, {2, 1}, 4, 853.0, 281.0, 290.0),
            Status::kCorruptRecord);
  EXPECT_EQ(record(900, {~std::uint64_t{0}, 4}, 3, 853.0, 281.0, 290.0),
            Status::kCorruptRecord);
  // min > max.
  EXPECT_EQ(record(900, {2, 1}, 3, 853.0, 290.0, 281.0),
            Status::kCorruptRecord);
  // min and max outside the samples: percentile would clamp every answer
  // into [5, 15] although no sample lies there.
  EXPECT_EQ(record(900, {2, 1}, 3, 30.0, 5.0, 15.0), Status::kCorruptRecord);
  // A min or max whose own bucket is empty.
  EXPECT_EQ(record(900, {2, 1}, 3, 853.0, 270.0, 290.0),
            Status::kCorruptRecord);
  EXPECT_EQ(record(900, {2, 1}, 3, 853.0, 281.0, 300.0),
            Status::kCorruptRecord);
  // A sample bucket below min's or above max's.
  EXPECT_EQ(record(899, {1, 1, 1}, 3, 853.0, 281.0, 290.0),
            Status::kCorruptRecord);
  EXPECT_EQ(record(900, {1, 1, 1}, 3, 853.0, 281.0, 290.0),
            Status::kCorruptRecord);
  // A non-finite sum and a NaN min/max are states record() leaves after an
  // inf or NaN sample, so they read back rather than fail.  A NaN sample
  // counts in the underflow bucket, below a finite min.
  EXPECT_EQ(record(0, {1}, 1, std::nan(""), std::nan(""), std::nan("")),
            Status::kOk);
  std::vector<std::uint64_t> nan_then_290(902, 0);
  nan_then_290.front() = 1;
  nan_then_290.back() = 1;
  EXPECT_EQ(record(0, nan_then_290, 2, std::nan(""), std::nan(""),
                   std::nan("")),
            Status::kOk);
  nan_then_290.at(900) = 1;
  EXPECT_EQ(record(0, nan_then_290, 3, std::nan(""), 281.0, 290.0),
            Status::kOk);
  std::vector<std::uint64_t> to_inf(buckets - 900, 0);
  to_inf.front() = 2;
  to_inf.back() = 1;
  EXPECT_EQ(record(900, to_inf, 3, HUGE_VAL, 281.0, HUGE_VAL), Status::kOk);
}

TEST(EvidenceRoundTrip, NonFiniteSeriesReadsBackAsWritten) {
  // record() accepts inf and NaN; the codec must read back whatever state
  // they leave, or the writer's own artifact would fail verification.
  trace::MetricsRegistry m;
  m.series("inf").record(1.0);
  m.series("inf").record(HUGE_VAL);        // saturates; sum and max inf
  m.series("nan_first").record(std::nan(""));  // min and max NaN
  m.series("nan_first").record(2.0);
  m.series("nan_last").record(2.0);
  m.series("nan_last").record(std::nan(""));   // sum NaN
  // A NaN-first series merged into a clean one leaves NaN bounds, as
  // record() does, so a fold's state reads back too.
  m.series("merged").record(1000.0);
  trace::MetricsRegistry nan_run;
  nan_run.series("merged").record(std::nan(""));
  nan_run.series("merged").record(5.0);
  m.merge(nan_run);
  EXPECT_TRUE(std::isnan(m.find_series("merged")->min()));
  EvidenceWriter w;
  w.record_metrics(m);
  w.finish();
  EXPECT_TRUE(verify_artifact(w.bytes(), "nonfinite.evd").ok);

  EvidenceReader r;
  ASSERT_EQ(r.parse(w.bytes()), Status::kOk) << r.error();
  EXPECT_EQ(*r.metrics().find_series("inf"), *m.find_series("inf"));
  // NaN never compares equal, so compare the raw state bit for bit.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const char* name : {"nan_first", "nan_last", "merged"}) {
    const auto* got = r.metrics().find_series(name);
    const auto* want = m.find_series(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(got->bucket_counts(), want->bucket_counts()) << name;
    EXPECT_EQ(got->count(), want->count()) << name;
    EXPECT_EQ(bits(got->sum()), bits(want->sum())) << name;
    EXPECT_EQ(bits(got->min()), bits(want->min())) << name;
    EXPECT_EQ(bits(got->max()), bits(want->max())) << name;
  }
}

TEST(EvidenceTamper, SpecificCorruptionsReportSpecificStatus) {
  const auto clean = build_full_artifact();

  {  // Header magic.
    auto bytes = clean;
    bytes[0] ^= 0xFF;
    EvidenceReader r;
    EXPECT_EQ(r.parse(bytes), Status::kBadMagic);
  }
  {  // Format version beyond this reader.
    auto bytes = clean;
    bytes[8] = 0xEE;
    bytes[9] = 0xEE;
    EvidenceReader r;
    EXPECT_EQ(r.parse(bytes), Status::kBadVersion);
  }
  {  // A flipped bit mid-record trips the chain (or the record decode).
    auto bytes = clean;
    bytes[bytes.size() / 2] ^= 0x01;
    EvidenceReader r;
    const Status s = r.parse(bytes);
    EXPECT_NE(s, Status::kOk);
  }
  {  // A flipped digest byte is a digest mismatch.
    auto bytes = clean;
    bytes[bytes.size() - 4 - 1] ^= 0x01;  // inside the 32-byte SHA-256
    EvidenceReader r;
    EXPECT_EQ(r.parse(bytes), Status::kDigestMismatch);
  }
  {  // A flipped chain-hash byte is a chain mismatch.
    auto bytes = clean;
    bytes[bytes.size() - 4 - 32 - 1] ^= 0x01;
    EvidenceReader r;
    EXPECT_EQ(r.parse(bytes), Status::kChainMismatch);
  }
  {  // End magic.  (Pointer form: gcc 12 misreads back() on the copied
     // vector as an out-of-bounds subscript.)
    auto bytes = clean;
    ASSERT_FALSE(bytes.empty());
    *(bytes.data() + bytes.size() - 1) ^= 0xFF;
    EvidenceReader r;
    EXPECT_EQ(r.parse(bytes), Status::kBadFooter);
  }
}

TEST(EvidenceTamper, EveryTruncationFailsGracefully) {
  // Small artifact so every prefix length is affordable; ASan watches the
  // reader for out-of-bounds access on all of them.
  trace::TraceRecorder rec(16);
  trace::MetricsRegistry m;
  m.counter("c").value = 1;
  for (int i = 1; i <= 4; ++i) m.series("rtt_us").record(100.0 * i);
  rec.instant("sim", "mark", "cpu", 100);
  EvidenceWriter w;
  w.record_run_meta("trunc", 0, 1);
  w.record_metrics(m);
  w.append_record(kSchemaMetricHistogram, 1, legacy_histogram_payload());
  w.record_trace(rec);
  w.finish();
  const auto& bytes = w.bytes();

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EvidenceReader r;
    EXPECT_NE(r.parse(bytes.data(), len), Status::kOk) << "prefix " << len;
  }
  EvidenceReader whole;
  EXPECT_EQ(whole.parse(bytes), Status::kOk);
}

TEST(EvidenceTamper, EveryByteFlipIsDetected) {
  // The footer self-checks and everything before it is under the SHA-256,
  // so no single corrupted byte may verify.
  trace::TraceRecorder rec(16);
  trace::MetricsRegistry m;
  m.gauge("g") = 1.5;
  for (int i = 1; i <= 4; ++i) m.series("rtt_us").record(100.0 * i);
  rec.instant("sim", "mark", "cpu", 100);
  EvidenceWriter w;
  w.record_run_meta("flip", 0, 1);
  w.record_metrics(m);
  w.append_record(kSchemaMetricHistogram, 1, legacy_histogram_payload());
  w.record_trace(rec);
  w.finish();

  auto bytes = w.bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0xFF;
    EvidenceReader r;
    EXPECT_NE(r.parse(bytes), Status::kOk) << "byte " << i;
    bytes[i] ^= 0xFF;
  }
  EvidenceReader clean;
  EXPECT_EQ(clean.parse(bytes), Status::kOk);
}

// ----------------------------------------------------------- verification

TEST(EvidenceVerify, ResultSummaryAndJson) {
  const auto bytes = build_full_artifact();
  const VerifyResult pass = verify_artifact(bytes, "mem.evd");
  EXPECT_TRUE(pass.ok);
  EXPECT_EQ(pass.status, Status::kOk);
  EXPECT_EQ(pass.summary().rfind("PASS mem.evd", 0), 0u) << pass.summary();
  EXPECT_NE(pass.to_json().find("\"ok\":true"), std::string::npos);
  EXPECT_NE(pass.to_json().find(pass.sha256_hex), std::string::npos);
  EXPECT_EQ(pass.schema_names.size(), SchemaRegistry::builtin().size());

  auto tampered = bytes;
  tampered[tampered.size() / 2] ^= 0x01;
  const VerifyResult fail = verify_artifact(tampered, "mem.evd");
  EXPECT_FALSE(fail.ok);
  EXPECT_EQ(fail.summary().rfind("FAIL mem.evd", 0), 0u) << fail.summary();
  EXPECT_NE(fail.to_json().find("\"ok\":false"), std::string::npos);
}

// ------------------------------------------------------- campaign evidence

/// Cheap deterministic campaign scenario: no shared state, everything
/// derived from the run seed.
bool synthetic_scenario(fault::RunContext& ctx) {
  ctx.metrics.counter("runs").increment();
  auto& iae = ctx.metrics.stats("campaign.iae");
  fault::SplitMix64 rng(ctx.run_seed);
  for (int i = 0; i < 16; ++i) {
    iae.add(static_cast<double>(rng.next() % 1000) / 8.0);
  }
  ctx.health.source = "evidence_campaign";
  return true;
}

fault::CampaignOptions campaign_options(std::size_t threads) {
  fault::CampaignOptions opts;
  opts.name = "evidence_campaign";
  opts.seed = 42;
  opts.runs = 6;
  opts.threads = threads;
  return opts;
}

/// Runs the synthetic campaign through the engine, which streams its
/// evidence into \p dir.
CampaignEvidence campaign_evidence(const fs::path& dir,
                                   const fault::CampaignOptions& opts) {
  campaign::EngineOptions eo;
  eo.campaign = opts;
  eo.evidence_dir = dir.string();
  return campaign::CampaignEngine(eo)
      .run(fault::CampaignScenario(synthetic_scenario))
      .evidence;
}

TEST(EvidenceCampaign, ThreadInvarianceAndManifestVerify) {
  // The acceptance bar: artifacts and manifest byte-identical across
  // 1/2/8 campaign threads, and evidence_verify passes on all of them.
  const fs::path base = scratch_dir("campaign");
  struct Out {
    CampaignEvidence ev;
    fs::path dir;
  };
  std::vector<Out> outs;
  for (std::size_t threads : {1u, 2u, 8u}) {
    const fs::path dir = base / ("t" + std::to_string(threads));
    outs.push_back({campaign_evidence(dir, campaign_options(threads)), dir});
  }

  const Out& ref = outs[0];
  ASSERT_EQ(ref.ev.runs.size(), 6u);
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_EQ(outs[i].ev.manifest, ref.ev.manifest) << "threads variant " << i;
    ASSERT_EQ(outs[i].ev.runs.size(), ref.ev.runs.size());
    for (std::size_t run = 0; run < ref.ev.runs.size(); ++run) {
      EXPECT_EQ(outs[i].ev.runs[run].sha256_hex, ref.ev.runs[run].sha256_hex);
      EXPECT_EQ(read_file_bytes(outs[i].dir / outs[i].ev.runs[run].filename),
                read_file_bytes(ref.dir / ref.ev.runs[run].filename));
    }
    EXPECT_EQ(outs[i].ev.merged.sha256_hex, ref.ev.merged.sha256_hex);
    EXPECT_EQ(read_file_bytes(outs[i].dir / outs[i].ev.merged.filename),
              read_file_bytes(ref.dir / ref.ev.merged.filename));
  }

  // Every artifact verifies, one by one and through the manifest.
  for (const auto& run : ref.ev.runs) {
    const auto vr = verify_artifact_file((ref.dir / run.filename).string());
    EXPECT_TRUE(vr.ok) << vr.summary();
    EXPECT_EQ(vr.sha256_hex, run.sha256_hex);
  }
  const auto mv = verify_manifest(ref.ev.manifest_path);
  EXPECT_TRUE(mv.ok) << mv.error;
  EXPECT_EQ(mv.passed, mv.entries.size());
  EXPECT_GE(mv.passed, 7u);  // 6 runs + merged

  // The merged artifact carries the campaign summary.
  EvidenceReader merged;
  ASSERT_EQ(merged.parse_file((ref.dir / ref.ev.merged.filename).string()),
            Status::kOk);
  ASSERT_EQ(merged.campaign_summaries().size(), 1u);
  EXPECT_EQ(merged.campaign_summaries()[0].name, "evidence_campaign");
  EXPECT_EQ(merged.campaign_summaries()[0].runs, 6u);
  EXPECT_EQ(merged.campaign_summaries()[0].unrecovered, 0u);
}

TEST(EvidenceCampaign, ManifestDetectsTamperedArtifact) {
  const fs::path dir = scratch_dir("tampered");
  const auto ev = campaign_evidence(dir, campaign_options(1));

  // Flip one byte of the first run artifact on disk.
  const fs::path victim = dir / ev.runs[0].filename;
  auto bytes = read_file_bytes(victim);
  bytes[bytes.size() / 2] ^= 0x01;
  std::ofstream os(victim, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  os.close();

  const auto mv = verify_manifest(ev.manifest_path);
  EXPECT_FALSE(mv.ok);
  std::size_t failed = 0;
  for (const auto& entry : mv.entries) failed += entry.verified ? 0 : 1;
  EXPECT_EQ(failed, 1u);  // only the tampered artifact fails
}

TEST(EvidenceCampaign, ManifestEscapesControlCharactersInNames) {
  // A tab in the campaign name reaches MANIFEST.jsonl as the JSON escape
  // \t — not stripped, not raw.
  const fs::path dir = scratch_dir("escaped_name");
  auto opts = campaign_options(1);
  opts.name = "tab\tname";
  const auto ev = campaign_evidence(dir, opts);
  std::ifstream in(ev.manifest_path, std::ios::binary);
  const std::string manifest((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(manifest, ev.manifest);
  EXPECT_NE(manifest.find("\"name\":\"tab\\tname\""), std::string::npos)
      << manifest;
  EXPECT_EQ(manifest.find('\t'), std::string::npos);
  EXPECT_TRUE(verify_manifest(ev.manifest_path).ok);
}

// ---------------------------------------------------------------- sidecar

TEST(EvidenceSink, SidecarCarriesIdentityAndReexportsWork) {
  const fs::path dir = scratch_dir("sidecar");
  trace::TraceRecorder rec(128);
  trace::MetricsRegistry m;
  fill_workload(rec, m);
  const auto writer =
      build_run_artifact("sidecar_run", 0, 7, m, nullptr, &rec);
  const auto artifact = write_artifact_with_sidecar(
      dir.string(), "run.evd", writer, "sidecar_run", 0, 7);
  EXPECT_EQ(artifact.sha256_hex, writer.sha256_hex());

  // Sidecar exists and pins the digest (it doubles as a manifest line).
  std::ifstream side(dir / "run.evd.meta.jsonl");
  ASSERT_TRUE(side.good());
  std::string line;
  std::getline(side, line);
  EXPECT_NE(line.find(writer.sha256_hex()), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"sidecar_run\""), std::string::npos);

  // Re-exports through the existing trace/metrics paths match the live
  // exporters byte for byte.
  const fs::path chrome = dir / "trace.json";
  const fs::path csv = dir / "metrics.csv";
  std::string error;
  ASSERT_TRUE(reexport_chrome_trace((dir / "run.evd").string(),
                                    chrome.string(), &error))
      << error;
  ASSERT_TRUE(reexport_metrics_csv((dir / "run.evd").string(), csv.string(),
                                   &error))
      << error;
  std::ifstream cj(chrome);
  const std::string chrome_out(std::istreambuf_iterator<char>(cj),
                               std::istreambuf_iterator<char>{});
  EXPECT_EQ(chrome_out, trace::to_chrome_trace(rec));
  std::ifstream mc(csv);
  const std::string csv_out(std::istreambuf_iterator<char>(mc),
                            std::istreambuf_iterator<char>{});
  EXPECT_EQ(csv_out, m.to_csv());
}

// -------------------------------------------------- health/build satellite

TEST(EvidenceSatellite, HealthReportJsonCarriesBuildInfo) {
  obs::HealthReport health;
  health.source = "build_probe";
  const std::string json = health.to_json();
  EXPECT_NE(json.find("\"build\":"), std::string::npos);
  EXPECT_NE(json.find(util::build_info().git_sha), std::string::npos);
  EXPECT_NE(json.find(util::build_info().build_type), std::string::npos);
}

}  // namespace
}  // namespace iecd::evidence
