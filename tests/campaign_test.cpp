// Campaign engine tests: reorder-fold ordering under adversarial
// completion orders, work-stealing scheduler output identity across
// thread/batch/placement configurations, checkpoint codec round-trip
// exactness, corrupt-checkpoint rejection, config-hash sensitivity,
// engine report identity against the goldens pinned from the retained
// runner it replaced, the write-nothing empty evidence directory, and the
// kill-at-every-checkpoint resume byte-identity suite (fork + _exit after
// the k-th seal, resume, byte-compare report and manifest).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/engine.hpp"
#include "campaign/fold.hpp"
#include "campaign/stream.hpp"
#include "evidence/format.hpp"
#include "fault/campaign.hpp"
#include "fault/rng.hpp"
#include "obs/health_report.hpp"
#include "trace/metrics.hpp"

#include "golden/campaign_reports.inc"

#if defined(__unix__)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace iecd::campaign {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory under the test working dir.
fs::path scratch_dir(const std::string& name) {
  fs::path dir = fs::path("campaign_test_tmp") / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

// --------------------------------------------------------------- ReorderFold

GroupResult make_group(std::size_t first, std::size_t size) {
  GroupResult g;
  g.first = first;
  g.metrics.resize(size);
  g.health.resize(size);
  for (std::size_t k = 0; k < size; ++k) {
    g.metrics[k].counter("run.index").increment(first + k);
  }
  return g;
}

TEST(ReorderFold, AdversarialCompletionOrdersFoldInIndexOrder) {
  // Groups of uneven sizes covering [0, 40); submit in several hostile
  // permutations — the sink must always see them in ascending index order
  // and the watermark must only advance over the contiguous prefix.
  const std::vector<std::pair<std::size_t, std::size_t>> groups = {
      {0, 3}, {3, 5}, {8, 1}, {9, 7}, {16, 4}, {20, 8}, {28, 2}, {30, 10}};
  std::vector<std::vector<std::size_t>> orders = {
      {7, 6, 5, 4, 3, 2, 1, 0},  // strictly reversed
      {1, 3, 5, 7, 0, 2, 4, 6},  // odd-first interleave
      {4, 0, 7, 2, 6, 1, 5, 3},  // shuffled
  };
  for (const auto& order : orders) {
    std::vector<std::size_t> seen;
    ReorderFold fold(0, 1000, [&](GroupResult& g) {
      seen.push_back(g.first);
      // Payload must arrive intact: each lane carries its own index.
      for (std::size_t k = 0; k < g.metrics.size(); ++k) {
        const auto* c = g.metrics[k].find_counter("run.index");
        ASSERT_NE(c, nullptr);
        EXPECT_EQ(c->value, g.first + k);
      }
    });
    for (std::size_t gi : order) {
      const auto [first, size] = groups[gi];
      fold.submit(std::make_unique<GroupResult>(make_group(first, size)));
      // Watermark covers exactly the folded contiguous prefix.
      std::size_t expect = 0;
      for (const auto& [f, s] : groups) {
        if (f != expect) break;
        bool folded = std::find(seen.begin(), seen.end(), f) != seen.end();
        if (!folded) break;
        expect = f + s;
      }
      EXPECT_EQ(fold.watermark(), expect);
    }
    ASSERT_EQ(seen.size(), groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
      EXPECT_EQ(seen[i], groups[i].first) << "order index " << i;
    }
    EXPECT_EQ(fold.watermark(), 40u);
  }
}

TEST(ReorderFold, WindowGatesEligibilityUntilWatermarkAdvances) {
  ReorderFold fold(0, 8, [](GroupResult&) {});
  EXPECT_TRUE(fold.eligible(0));
  EXPECT_TRUE(fold.eligible(7));
  EXPECT_FALSE(fold.eligible(8));   // at watermark + window: throttled
  EXPECT_FALSE(fold.eligible(100));
  fold.submit(std::make_unique<GroupResult>(make_group(0, 4)));
  EXPECT_EQ(fold.watermark(), 4u);
  EXPECT_TRUE(fold.eligible(8));    // window slid with the watermark
  EXPECT_FALSE(fold.eligible(12));
}

TEST(ReorderFold, ResumeStartOffsetsTheWindow) {
  std::vector<std::size_t> seen;
  ReorderFold fold(64, 16, [&](GroupResult& g) { seen.push_back(g.first); });
  EXPECT_EQ(fold.watermark(), 64u);
  EXPECT_TRUE(fold.eligible(64));
  EXPECT_FALSE(fold.eligible(80));
  fold.submit(std::make_unique<GroupResult>(make_group(68, 4)));
  EXPECT_TRUE(seen.empty());  // buffered: 64 not folded yet
  fold.submit(std::make_unique<GroupResult>(make_group(64, 4)));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 64u);
  EXPECT_EQ(seen[1], 68u);
  EXPECT_EQ(fold.watermark(), 72u);
}

// -------------------------------------------------------------- StreamRunner

/// Deterministic per-run value: a pure function of the absolute run index,
/// so any correct schedule folds the same sequence.
double run_value(std::size_t index) {
  fault::SplitMix64 rng(0xC0FFEEULL + index);
  double acc = 0.0;
  for (int i = 0; i < 64; ++i) {
    acc = acc * 0.5 + static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  }
  return acc;
}

StreamRunner::GroupFn value_group_fn() {
  return [](std::size_t first, std::span<trace::MetricsRegistry> metrics,
            std::span<obs::HealthReport> health) {
    for (std::size_t k = 0; k < metrics.size(); ++k) {
      metrics[k].stats("v").add(run_value(first + k));
      health[k].runs = 1;
    }
  };
}

/// Runs the scheduler and returns the folded per-run values in sink order,
/// asserting the sink saw a contiguous ascending index sequence.
std::vector<double> collect(const StreamOptions& opts, std::size_t runs,
                            std::size_t start = 0) {
  std::vector<double> values;
  std::size_t expect = start;
  StreamRunner runner(opts);
  auto sink = [&](GroupResult& g) {
    EXPECT_EQ(g.first, expect);
    for (auto& m : g.metrics) {
      const auto* s = m.find_stats("v");
      EXPECT_NE(s, nullptr);
      if (s) values.push_back(s->sum());
    }
    expect = g.first + g.metrics.size();
  };
  StreamStats stats = runner.run(runs, start, value_group_fn(), sink);
  EXPECT_EQ(stats.runs, runs);
  EXPECT_EQ(stats.start, start);
  EXPECT_EQ(expect, runs);
  return values;
}

TEST(StreamRunner, OutputIdenticalAcrossThreadsBatchAndPlacement) {
  // Reference: sequential, scalar tiling.  Runs deliberately NOT a
  // multiple of any batch below, so remainder groups are exercised.
  const std::size_t kRuns = 53;
  StreamOptions ref;
  ref.threads = 1;
  const std::vector<double> expected = collect(ref, kRuns);
  ASSERT_EQ(expected.size(), kRuns);

  struct Config {
    std::size_t threads, batch, window, chunk;
    Placement placement;
    bool stealing;
  };
  const std::vector<Config> configs = {
      {2, 1, 0, 0, Placement::kCyclic, true},
      {8, 1, 0, 1, Placement::kCyclic, true},   // chunk 1: steal-heavy
      {4, 4, 0, 0, Placement::kCyclic, true},   // remainder group of 1
      {4, 8, 0, 2, Placement::kCyclic, true},   // remainder group of 5
      {4, 4, 0, 0, Placement::kCyclic, false},  // static cyclic, no steals
      {4, 4, 0, 0, Placement::kContiguous, true},
      {3, 5, 17, 1, Placement::kCyclic, true},  // odd window/batch mix
  };
  for (const auto& c : configs) {
    StreamOptions o;
    o.threads = c.threads;
    o.batch = c.batch;
    o.window = c.window;
    o.chunk = c.chunk;
    o.placement = c.placement;
    o.stealing = c.stealing;
    const std::vector<double> got = collect(o, kRuns);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      // Bit-exact, not approximately equal: the determinism contract.
      EXPECT_EQ(got[i], expected[i])
          << "run " << i << " differs at threads=" << c.threads
          << " batch=" << c.batch;
    }
  }
}

TEST(StreamRunner, ResumeTailMatchesUninterruptedRun) {
  const std::size_t kRuns = 40;
  const std::size_t kBatch = 4;
  StreamOptions o;
  o.threads = 2;
  o.batch = kBatch;
  const std::vector<double> full = collect(o, kRuns);
  // Resume from every group-aligned start, including start == runs.
  for (std::size_t start = 0; start <= kRuns; start += kBatch) {
    const std::vector<double> tail = collect(o, kRuns, start);
    ASSERT_EQ(tail.size(), kRuns - start);
    for (std::size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(tail[i], full[start + i]) << "resume " << start;
    }
  }
}

// ------------------------------------------------------- checkpoint codec

obs::HealthReport populated_health() {
  obs::HealthReport h;
  h.source = "campaign_test";
  h.runs = 17;
  auto& t = h.tasks["ctl.work"];
  for (int i = 0; i < 50; ++i) {
    const auto at = static_cast<sim::SimTime>(1000 + 37 * i);
    t.record(at, at + 3 + (i % 5), at + 20 + (i % 11));
  }
  auto& w = h.watermarks["queue.depth"];
  for (int i = 0; i < 9; ++i) w.update(0.5 * i - 1.25);
  h.anomalies["deadline_miss"] = 3;
  h.anomalies["overrun"] = 1;
  obs::FlightRecorder::Dump d;
  d.trigger = "deadline_miss";
  d.detail = "ctl.work";
  d.time = 2345;
  d.ordinal = 7;
  obs::FlightRecorder::DumpEvent e;
  e.type = trace::EventType::kInstant;
  e.category = "rt";
  e.name = "miss";
  e.track = "task";
  e.time = 2344;
  e.duration = 11;
  e.seq = 99;
  e.value = -0.75;
  d.events.push_back(e);
  d.monitor_state.push_back("ctl.work: miss at 2345");
  h.dumps.push_back(d);
  h.dumps_suppressed = 2;
  return h;
}

TEST(Checkpoint, HealthReportCodecRoundTripsByteExactly) {
  const obs::HealthReport original = populated_health();
  std::vector<std::uint8_t> first;
  encode_health_report(first, original);
  ASSERT_FALSE(first.empty());

  obs::HealthReport decoded;
  evidence::PayloadCursor cur(first.data(), first.size());
  ASSERT_TRUE(decode_health_report(cur, decoded));
  EXPECT_TRUE(cur.done());

  // Exactness check: re-encoding the decoded report must reproduce the
  // identical byte sequence (any lossy field would diverge here).
  std::vector<std::uint8_t> second;
  encode_health_report(second, decoded);
  EXPECT_EQ(first, second);

  EXPECT_EQ(decoded.source, original.source);
  EXPECT_EQ(decoded.runs, original.runs);
  EXPECT_EQ(decoded.anomalies, original.anomalies);
  EXPECT_EQ(decoded.dumps_suppressed, original.dumps_suppressed);
  ASSERT_EQ(decoded.dumps.size(), 1u);
  EXPECT_EQ(decoded.dumps[0].trigger, "deadline_miss");
  ASSERT_EQ(decoded.dumps[0].events.size(), 1u);
  EXPECT_EQ(decoded.dumps[0].events[0].seq, 99u);
  EXPECT_EQ(decoded.dumps[0].events[0].value, -0.75);
}

TEST(Checkpoint, TruncatedHealthBlobIsRejected) {
  std::vector<std::uint8_t> bytes;
  encode_health_report(bytes, populated_health());
  // Every proper prefix must fail to decode — never read past the end,
  // never "succeed" on partial state.  (Stride keeps the loop cheap.)
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    obs::HealthReport out;
    evidence::PayloadCursor cur(bytes.data(), len);
    EXPECT_FALSE(decode_health_report(cur, out)) << "prefix " << len;
  }
}

TEST(Checkpoint, HistogramBoundsOutsideTheirSamplesAreRejected) {
  // One task whose response histogram holds 281, 282 and 290 us (buckets
  // 900 and 901).  Rewriting its stored min and max so that their buckets
  // hold no sample must fail the decode, as the evidence reader fails such
  // a record; bounds inside the same buckets still decode.
  obs::HealthReport h;
  h.source = "campaign_test";
  auto& t = h.tasks["ctl.work"];
  t.record_response_us(281.0, 0);
  t.record_response_us(282.0, 1000);
  t.record_response_us(290.0, 2000);
  std::vector<std::uint8_t> bytes;
  encode_health_report(bytes, h);
  std::vector<std::uint8_t> bounds;
  evidence::store_f64(bounds, 281.0);
  evidence::store_f64(bounds, 290.0);
  const auto at =
      std::search(bytes.begin(), bytes.end(), bounds.begin(), bounds.end());
  ASSERT_NE(at, bytes.end());
  const auto decodes = [&](double min, double max) {
    std::vector<std::uint8_t> patched(bytes.begin(), at);
    evidence::store_f64(patched, min);
    evidence::store_f64(patched, max);
    patched.insert(patched.end(), at + 16, bytes.end());
    obs::HealthReport out;
    evidence::PayloadCursor cur(patched.data(), patched.size());
    return decode_health_report(cur, out) && cur.done();
  };
  EXPECT_TRUE(decodes(281.0, 290.0));
  EXPECT_TRUE(decodes(280.0, 295.5));   // the same two buckets
  EXPECT_FALSE(decodes(5.0, 15.0));     // no sample near either bound
  EXPECT_FALSE(decodes(270.0, 290.0));  // min's bucket is empty
  EXPECT_FALSE(decodes(281.0, 300.0));  // max's bucket is empty
}

CheckpointState populated_state() {
  CheckpointState s;
  s.name = "resume_campaign";
  s.config_hash = 0xDEADBEEFCAFE1234ULL;
  s.total_runs = 96;
  s.watermark = 48;
  s.merged.counter("campaign.runs").increment(48);
  s.merged.counter("campaign.unrecovered").increment(2);
  for (int i = 0; i < 33; ++i) {
    s.merged.stats("campaign.cost").add(0.125 * i - 1.0);
  }
  s.merged.gauge("campaign.last") = 0.875;
  s.merged.series("campaign.lat").record(1.5);
  s.merged.series("campaign.lat").record(-2.25);
  s.health = populated_health();
  s.unrecovered_runs = {11, 37};
  s.unrecovered_health[11] = populated_health();
  s.unrecovered_health[37] = populated_health();
  s.unrecovered_health[37].runs = 1;
  return s;
}

TEST(Checkpoint, SaveLoadRoundTripsExactly) {
  const fs::path dir = scratch_dir("ckpt_roundtrip");
  const std::string path = (dir / "CHECKPOINT.evd").string();
  const CheckpointState original = populated_state();
  ASSERT_TRUE(save_checkpoint(path, original));

  CheckpointState loaded;
  ASSERT_EQ(load_checkpoint(path, loaded), CheckpointStatus::kOk);
  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.config_hash, original.config_hash);
  EXPECT_EQ(loaded.total_runs, original.total_runs);
  EXPECT_EQ(loaded.watermark, original.watermark);
  EXPECT_EQ(loaded.unrecovered_runs, original.unrecovered_runs);
  ASSERT_EQ(loaded.unrecovered_health.size(), 2u);

  // Metrics round-trip raw-exactly: bit-for-bit accumulator state.
  const auto* st = loaded.merged.find_stats("campaign.cost");
  const auto* so = original.merged.find_stats("campaign.cost");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->count(), so->count());
  EXPECT_EQ(st->mean(), so->mean());
  EXPECT_EQ(st->m2(), so->m2());
  EXPECT_EQ(st->sum(), so->sum());
  EXPECT_EQ(st->min(), so->min());
  EXPECT_EQ(st->max(), so->max());
  ASSERT_NE(loaded.merged.find_counter("campaign.runs"), nullptr);
  EXPECT_EQ(loaded.merged.find_counter("campaign.runs")->value, 48u);
  ASSERT_NE(loaded.merged.find_series("campaign.lat"), nullptr);
  EXPECT_EQ(*loaded.merged.find_series("campaign.lat"),
            *original.merged.find_series("campaign.lat"));

  // The strongest exactness check: saving the LOADED state must produce a
  // byte-identical checkpoint file (build info is deterministic).
  const std::string path2 = (dir / "CHECKPOINT2.evd").string();
  ASSERT_TRUE(save_checkpoint(path2, loaded));
  EXPECT_EQ(slurp(path), slurp(path2));
}

TEST(Checkpoint, InfiniteLatencyRoundTrips) {
  // A series that recorded inf (sum and max inf) is a state record() can
  // leave; the checkpoint keeps it instead of dropping the file as corrupt.
  const fs::path dir = scratch_dir("ckpt_inf");
  const std::string path = (dir / "CHECKPOINT.evd").string();
  CheckpointState original = populated_state();
  original.merged.series("campaign.lat").record(HUGE_VAL);
  ASSERT_TRUE(save_checkpoint(path, original));
  CheckpointState loaded;
  ASSERT_EQ(load_checkpoint(path, loaded), CheckpointStatus::kOk);
  ASSERT_NE(loaded.merged.find_series("campaign.lat"), nullptr);
  EXPECT_EQ(*loaded.merged.find_series("campaign.lat"),
            *original.merged.find_series("campaign.lat"));
  EXPECT_EQ(loaded.merged.find_series("campaign.lat")->max(), HUGE_VAL);
}

TEST(Checkpoint, SizeDoesNotGrowWithFoldedRuns) {
  // A checkpoint is O(sites + histogram buckets + unrecovered), never
  // O(runs): after 512 folded PIL-style runs of 500 round trips each it is
  // within 1 KB of the one taken after 64.
  const fs::path dir = scratch_dir("ckpt_size");
  CheckpointState state;
  state.name = "size_campaign";
  state.total_runs = 512;
  const auto fold_to = [&](std::uint64_t runs) {
    for (std::uint64_t run = state.watermark; run < runs; ++run) {
      trace::MetricsRegistry m;
      m.counter("pil.exchanges").increment(500);
      auto& rtt = m.series("pil.round_trip_us");
      for (std::uint64_t k = 0; k < 500; ++k) {
        rtt.record(280.0 + static_cast<double>((k * 7 + run * 13) % 41) +
                   0.125 * static_cast<double>(k % 8));
      }
      state.merged.merge(m);
    }
    state.watermark = runs;
    const fs::path path = dir / ("CHECKPOINT_" + std::to_string(runs) + ".evd");
    EXPECT_TRUE(save_checkpoint(path.string(), state));
    return fs::file_size(path);
  };
  const std::uintmax_t after_64 = fold_to(64);
  const std::uintmax_t after_512 = fold_to(512);
  EXPECT_EQ(state.merged.find_series("pil.round_trip_us")->count(),
            512u * 500u);
  EXPECT_LT(std::max(after_64, after_512) - std::min(after_64, after_512),
            1024u)
      << after_64 << " B after 64 runs, " << after_512 << " B after 512";
}

TEST(Checkpoint, MissingCorruptAndTamperedFilesAreRejected) {
  const fs::path dir = scratch_dir("ckpt_corrupt");
  const std::string path = (dir / "CHECKPOINT.evd").string();
  CheckpointState out;
  EXPECT_EQ(load_checkpoint(path, out), CheckpointStatus::kMissing);

  ASSERT_TRUE(save_checkpoint(path, populated_state()));
  std::string bytes = slurp(path);

  // Truncation at several depths: always corrupt, never a crash.
  for (std::size_t keep : {std::size_t{0}, std::size_t{8}, bytes.size() / 2,
                           bytes.size() - 1}) {
    std::ofstream(path, std::ios::binary)
        << std::string_view(bytes).substr(0, keep);
    EXPECT_NE(load_checkpoint(path, out), CheckpointStatus::kOk)
        << "truncated to " << keep;
  }

  // Single-byte flip deep in the payload: the container hash catches it.
  std::string flipped = bytes;
  flipped[flipped.size() * 3 / 4] ^= 0x40;
  std::ofstream(path, std::ios::binary) << flipped;
  EXPECT_NE(load_checkpoint(path, out), CheckpointStatus::kOk);

  // Intact file still loads after all that thrashing.
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_EQ(load_checkpoint(path, out), CheckpointStatus::kOk);
}

TEST(Checkpoint, ConfigHashCoversResultsAndIgnoresScheduling) {
  fault::CampaignOptions base;
  base.name = "hash_probe";
  base.seed = 7;
  base.runs = 100;
  base.batch = 4;
  base.plan.can_drop_rate = 0.01;
  const std::uint64_t h0 = campaign_config_hash(base);

  // Result-determining fields: any change must change the hash.
  {
    auto o = base;
    o.name = "hash_probe2";
    EXPECT_NE(campaign_config_hash(o), h0);
  }
  {
    auto o = base;
    o.seed = 8;
    EXPECT_NE(campaign_config_hash(o), h0);
  }
  {
    auto o = base;
    o.runs = 101;
    EXPECT_NE(campaign_config_hash(o), h0);
  }
  {
    auto o = base;
    o.batch = 8;
    EXPECT_NE(campaign_config_hash(o), h0);
  }
  {
    auto o = base;
    o.plan.can_drop_rate = 0.02;
    EXPECT_NE(campaign_config_hash(o), h0);
  }
  {
    auto o = base;
    o.plan.encoder_glitch_counts = -3;
    EXPECT_NE(campaign_config_hash(o), h0);
  }
  {
    auto o = base;
    o.plan.irq_spike_cycles = 250;
    EXPECT_NE(campaign_config_hash(o), h0);
  }
  // Scheduling knobs: excluded so a checkpoint resumes across thread
  // counts.
  {
    auto o = base;
    o.threads = 16;
    EXPECT_EQ(campaign_config_hash(o), h0);
  }
}

TEST(Checkpoint, ConfigHashOfFixedOptionsIsPinned) {
  // A checkpoint resumes only while its options hash to the value it was
  // sealed with: pin one so checkpoints from earlier builds stay valid.
  fault::CampaignOptions o;
  o.name = "hash_pin";
  o.seed = 2026;
  o.runs = 512;
  o.batch = 8;
  o.plan = fault::FaultPlan::defaults();
  o.plan.encoder_glitch_counts = -3;
  EXPECT_EQ(campaign_config_hash(o), 0x30efd99496afc93eULL);
}

// ------------------------------------------------------------ CampaignEngine

/// Synthetic campaign scenario: deterministic spin work, one stats site,
/// one timing monitor, and a seed-derived unrecovered predicate — output
/// is a pure function of (seed, runs, batch).
bool engine_scenario(fault::RunContext& ctx) {
  fault::SplitMix64 rng(ctx.run_seed);
  double acc = 0.0;
  for (int i = 0; i < 400; ++i) {
    acc = acc * 0.9999999 + static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  }
  ctx.metrics.stats("campaign.cost").add(acc);
  const auto t = static_cast<sim::SimTime>(1000 + ctx.index);
  ctx.health.tasks["test.work"].record(t, t + 1, t + 2);
  return (rng.next() & 7) != 0;  // ~1/8 of runs unrecovered
}

fault::CampaignOptions engine_options(std::size_t runs, std::size_t threads,
                                      std::size_t batch) {
  fault::CampaignOptions o;
  o.name = "engine_test";
  o.seed = 2026;
  o.runs = runs;
  o.threads = threads;
  o.batch = batch;
  return o;
}

TEST(CampaignEngine, ReportMatchesRetainedRunnerByteForByte) {
  const std::size_t kRuns = 64;

  struct Config {
    std::size_t threads, batch;
    bool contiguous;
  };
  for (const Config& c : std::vector<Config>{
           {1, 1, false}, {2, 1, false}, {4, 4, false}, {2, 4, true}}) {
    const fs::path dir = scratch_dir(
        "engine_ident_t" + std::to_string(c.threads) + "_b" +
        std::to_string(c.batch) + (c.contiguous ? "_c" : ""));
    EngineOptions eo;
    eo.campaign = engine_options(kRuns, c.threads, c.batch);
    eo.evidence_dir = dir.string();
    eo.write_run_artifacts = false;
    eo.contiguous = c.contiguous;
    CampaignEngine engine(eo);
    EngineResult r = engine.run(fault::CampaignScenario(engine_scenario));
    EXPECT_FALSE(r.resumed);
    EXPECT_EQ(r.report.to_json(), golden::kEngineTestJson)
        << "threads=" << c.threads << " batch=" << c.batch;
  }
}

// A thread count above the ceiling is refused at construction, before any
// worker starts; the ceiling itself constructs (and starts nothing).
TEST(CampaignEngine, RejectsThreadsAboveTheCeiling) {
  EngineOptions eo;
  eo.campaign = engine_options(64, kMaxCampaignThreads, 4);
  EXPECT_NO_THROW(CampaignEngine{eo});
  eo.campaign.threads = kMaxCampaignThreads + 1;
  EXPECT_THROW(CampaignEngine{eo}, std::invalid_argument);
}

// A zero lane-group width is refused at construction as well.
TEST(CampaignEngine, RejectsZeroBatch) {
  EngineOptions eo;
  eo.campaign = engine_options(64, 1, 0);
  EXPECT_THROW(CampaignEngine{eo}, std::invalid_argument);
}

// A width above the run count runs every run in one group, so the report
// is batch = runs's (the pinned golden), up to the widest width.
TEST(CampaignEngine, WidthAboveRunsRunsOneGroupOfEveryRun) {
  const std::size_t kRuns = 64;
  for (const std::size_t batch :
       {kRuns, kRuns + 1, std::numeric_limits<std::size_t>::max()}) {
    EngineOptions eo;
    eo.campaign = engine_options(kRuns, 2, batch);
    CampaignEngine engine(eo);
    const EngineResult r =
        engine.run(fault::CampaignScenario(engine_scenario));
    EXPECT_EQ(r.sched.groups, 1u) << "batch=" << batch;
    EXPECT_EQ(r.report.to_json(), golden::kEngineTestJson)
        << "batch=" << batch;
  }
}

TEST(CampaignEngine, EmptyEvidenceDirWritesNothing) {
  // Run in a fresh, empty working directory with every writing option on:
  // an empty evidence_dir must leave it empty.
  const fs::path dir = fs::absolute(scratch_dir("empty_dir"));
  EngineOptions eo;
  eo.campaign = engine_options(64, 2, 4);
  eo.checkpoint_every = 8;
  eo.write_run_artifacts = true;
  EngineResult r;
  {
    struct RestoreCwd {
      fs::path saved = fs::current_path();
      ~RestoreCwd() { fs::current_path(saved); }
    } restore;
    fs::current_path(dir);
    r = CampaignEngine(eo).run(fault::CampaignScenario(engine_scenario));
  }
  EXPECT_TRUE(fs::is_empty(dir));
  EXPECT_EQ(r.checkpoints_sealed, 0u);
  EXPECT_TRUE(r.evidence.manifest_path.empty());
  EXPECT_EQ(r.report.to_json(), golden::kEngineTestJson);
}

#if defined(__unix__)

/// Runs the engine to completion in \p dir; returns (report json, manifest
/// bytes).
std::pair<std::string, std::string> run_full(const fs::path& dir,
                                             std::size_t runs,
                                             std::size_t threads,
                                             std::size_t batch,
                                             std::size_t checkpoint_every) {
  EngineOptions eo;
  eo.campaign = engine_options(runs, threads, batch);
  eo.evidence_dir = dir.string();
  eo.checkpoint_every = checkpoint_every;
  CampaignEngine engine(eo);
  EngineResult r = engine.run(fault::CampaignScenario(engine_scenario));
  EXPECT_FALSE(fs::exists(engine.checkpoint_path()))
      << "checkpoint must be deleted after a completed campaign";
  return {r.report.to_json(), slurp(r.evidence.manifest_path)};
}

TEST(CampaignEngine, KillAtEveryCheckpointThenResumeIsByteIdentical) {
  const std::size_t kRuns = 96;
  const std::size_t kBatch = 4;
  const std::size_t kEvery = 16;

  // Uninterrupted reference run (2 threads).
  const fs::path ref_dir = scratch_dir("resume_ref");
  const auto [ref_json, ref_manifest] =
      run_full(ref_dir, kRuns, 2, kBatch, kEvery);

  // Count the seals an uninterrupted run performs.
  std::size_t total_seals = 0;
  {
    const fs::path dir = scratch_dir("resume_count");
    EngineOptions eo;
    eo.campaign = engine_options(kRuns, 2, kBatch);
    eo.evidence_dir = dir.string();
    eo.checkpoint_every = kEvery;
    CampaignEngine engine(eo);
    total_seals = engine.run(fault::CampaignScenario(engine_scenario))
                      .checkpoints_sealed;
  }
  ASSERT_GE(total_seals, 3u) << "test needs several checkpoints to kill at";

  for (std::size_t kill_at = 1; kill_at <= total_seals; ++kill_at) {
    const fs::path dir = scratch_dir("resume_kill_" + std::to_string(kill_at));

    // Child: run until the kill_at-th checkpoint seal, then die the hard
    // way — no destructors, no flushes, exactly like a crashed fleet node.
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      EngineOptions eo;
      eo.campaign = engine_options(kRuns, 2, kBatch);
      eo.evidence_dir = dir.string();
      eo.checkpoint_every = kEvery;
      std::size_t sealed = 0;
      eo.on_checkpoint = [&sealed, kill_at](const CheckpointState&) {
        if (++sealed == kill_at) _exit(42);
      };
      CampaignEngine engine(eo);
      engine.run(fault::CampaignScenario(engine_scenario));
      _exit(0);  // kill_at beyond the seal count: completed instead
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 42) << "kill " << kill_at;
    ASSERT_TRUE(fs::exists(dir / CampaignEngine::checkpoint_filename()));

    // Resume — at a DIFFERENT thread count, which must not matter.
    EngineOptions eo;
    eo.campaign = engine_options(kRuns, 3, kBatch);
    eo.evidence_dir = dir.string();
    eo.checkpoint_every = kEvery;
    CampaignEngine engine(eo);
    EngineResult r = engine.run(fault::CampaignScenario(engine_scenario));
    EXPECT_TRUE(r.resumed) << "kill " << kill_at;
    EXPECT_GT(r.resume_start, 0u);
    EXPECT_EQ(r.resume_start % kBatch, 0u) << "watermark not group-aligned";
    EXPECT_EQ(r.report.to_json(), ref_json) << "kill " << kill_at;
    EXPECT_EQ(slurp(r.evidence.manifest_path), ref_manifest)
        << "kill " << kill_at;
  }
}

TEST(CampaignEngine, ConfigMismatchDiscardsCheckpointAndStartsFresh) {
  const std::size_t kRuns = 48;
  const fs::path dir = scratch_dir("resume_mismatch");

  // Crash after the first seal to leave a checkpoint behind.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    EngineOptions eo;
    eo.campaign = engine_options(kRuns, 2, 4);
    eo.evidence_dir = dir.string();
    eo.checkpoint_every = 8;
    eo.on_checkpoint = [](const CheckpointState&) { _exit(42); };
    CampaignEngine engine(eo);
    engine.run(fault::CampaignScenario(engine_scenario));
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_EQ(WEXITSTATUS(status), 42);

  // Same directory, different seed: the checkpoint must be ignored (fresh
  // start), and the output must equal a clean run with the new seed.
  EngineOptions eo;
  eo.campaign = engine_options(kRuns, 2, 4);
  eo.campaign.seed = 9999;
  eo.evidence_dir = dir.string();
  eo.checkpoint_every = 8;
  CampaignEngine engine(eo);
  EngineResult r = engine.run(fault::CampaignScenario(engine_scenario));
  EXPECT_FALSE(r.resumed);

  EXPECT_EQ(r.report.to_json(), golden::kEngineTestSeed9999Json);
}

#endif  // __unix__

}  // namespace
}  // namespace iecd::campaign
