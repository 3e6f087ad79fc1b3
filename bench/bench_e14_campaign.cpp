// E14 — fleet-scale campaign engine (src/campaign/): the work-stealing
// scheduler + streaming O(sites) aggregation + checkpoint/resume measured
// against the retained baseline.  Four tables:
//
//   (a) memory: a retained fold (exec::SweepRunner over the campaign's
//       lane groups, keeping every run's registry and health report until
//       the report is built) vs the streaming CampaignEngine, peak RSS
//       measured in a forked child per
//       configuration (ru_maxrss is a process-lifetime high-water mark, so
//       in-process comparisons would contaminate each other).  The
//       retained cost is linear in runs; the extrapolated retained RSS at
//       the fleet scale vs the streaming engine's MEASURED RSS at that
//       scale is the gated ratio (>= 10x).
//   (b) scheduling: a straggler mix (a contiguous heavy front block, 8x
//       the base work) run under static contiguous tiling without
//       stealing vs cyclic placement with steal-half stealing — the gated
//       speedup (>= 1.3x runs/s).
//   (c) determinism: the engine's campaign JSON is byte-identical across
//       thread counts, batch widths and placements, and identical to the
//       retained fold's.
//   (d) checkpoint/resume: a child process killed (_exit) mid-campaign
//       right after a checkpoint seal; the resumed campaign's report JSON
//       and evidence MANIFEST.jsonl are byte-compared against an
//       uninterrupted run.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "bench_util.hpp"
#include "campaign/engine.hpp"
#include "exec/sweep.hpp"
#include "fault/campaign.hpp"
#include "fault/rng.hpp"

#if defined(__unix__)
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace iecd;

namespace {

// ------------------------------------------------------------- workloads

std::size_t fleet_runs() {
  if (bench::overrides().runs > 0) return bench::overrides().runs;
  return bench::smoke() ? 5000 : 100000;
}
std::size_t memory_runs() { return bench::smoke() ? 1200 : 3000; }
std::size_t steal_runs() { return bench::smoke() ? 512 : 2048; }
std::size_t identity_runs() { return bench::smoke() ? 192 : 512; }

std::size_t bench_threads() {
  if (bench::overrides().threads > 0) return bench::overrides().threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 4 ? 4 : (hw >= 2 ? 2 : 1);
}

/// Deterministic busy work: a SplitMix64-fed fma chain.  Pure arithmetic,
/// no clocks — the result (and therefore every campaign output) is
/// bit-identical across threads and schedules.
double spin(std::uint64_t seed, std::size_t iters) {
  fault::SplitMix64 rng(seed);
  double acc = 0.0;
  for (std::size_t i = 0; i < iters; ++i) {
    const double x =
        static_cast<double>(rng.next() >> 11) * 0x1.0p-53;  // [0, 1)
    acc = acc * 0.9999999 + x;
  }
  return acc;
}

/// One synthetic campaign run.  \p heavy_front runs at the FRONT of the
/// index space cost 8x the base work — the straggler mix the stealing
/// table gates on.  \p heavy_health bulks the per-run health report with
/// two full timing monitors (6 histograms, ~92 kB retained per run) so
/// the memory table has a realistic per-run footprint to retain.
fault::CampaignScenario make_scenario(std::size_t base_iters,
                                      std::size_t heavy_front,
                                      bool heavy_health) {
  return [base_iters, heavy_front, heavy_health](fault::RunContext& ctx) {
    const std::size_t mult = ctx.index < heavy_front ? 8 : 1;
    const double acc = spin(ctx.run_seed, base_iters * mult);
    ctx.metrics.stats("campaign.cost").add(acc);
    ctx.metrics.counter("campaign.iters").value += base_iters * mult;
    if (heavy_health) {
      auto& work = ctx.health.tasks["e14.work"];
      auto& drain = ctx.health.tasks["e14.drain"];
      const auto t = static_cast<sim::SimTime>(1000 + ctx.index);
      work.record(t, t + 1, t + 2 + static_cast<sim::SimTime>(mult));
      drain.record(t, t + 1, t + 3);
      ctx.health.watermarks["e14.acc"].update(acc);
    }
    return true;
  };
}

fault::CampaignOptions campaign_options(const char* name, std::size_t runs,
                                        std::size_t threads) {
  fault::CampaignOptions opts;
  opts.name = name;
  opts.seed = 2026;
  opts.runs = runs;
  opts.threads = threads;
  return opts;
}

/// The retained baseline: exec::SweepRunner runs the campaign's lane
/// groups (fault::run_campaign_group, as the engine does) and keeps every
/// run's registry and health report until the index-order fold has built
/// the report — the O(runs) memory the streaming engine avoids.  Returns
/// the report JSON.
std::string retained_report_json(const fault::CampaignOptions& opts,
                                 const fault::CampaignScenario& scenario) {
  exec::SweepRunner::Result result =
      exec::SweepRunner({opts.threads, opts.batch})
          .run(opts.runs,
               exec::SweepRunner::BatchHealthScenario(
                   [&](std::size_t first,
                       std::span<trace::MetricsRegistry> metrics,
                       std::span<obs::HealthReport> health) {
                     fault::run_campaign_group(opts, scenario, first,
                                               metrics, health);
                   }));
  fault::CampaignReport report;
  report.name = opts.name;
  report.seed = opts.seed;
  report.runs = result.runs;
  report.merged = std::move(result.merged);
  report.health = std::move(result.health);
  report.read_totals();
  for (std::size_t i = 0; i < result.per_run.size(); ++i) {
    if (fault::run_unrecovered(result.per_run[i])) {
      report.unrecovered_runs.push_back(i);
      report.unrecovered_health.emplace(i, result.per_run_health[i]);
    }
  }
  return report.to_json();
}

campaign::EngineOptions engine_options(const char* name, std::size_t runs,
                                       std::size_t threads,
                                       const std::string& dir) {
  campaign::EngineOptions eo;
  eo.campaign = campaign_options(name, runs, threads);
  eo.evidence_dir = dir;
  eo.write_run_artifacts = false;
  return eo;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// ------------------------------------------- fork-per-measurement harness

struct ChildResult {
  double rss_kb = 0.0;
  double wall_ms = 0.0;
  std::uint64_t hash = 0;
  bool ok = false;
};

/// Runs \p fn (returning an output hash) in a forked child and reports the
/// CHILD's peak RSS — the only way to compare configurations, since
/// ru_maxrss never decreases within one process.  Falls back to in-process
/// execution (shared, monotonic RSS) where fork is unavailable.
template <typename Fn>
ChildResult measure_in_child(Fn fn) {
  ChildResult r;
#if defined(__unix__)
  int fds[2];
  if (pipe(fds) != 0) return r;
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    ChildResult child;
    bench::Stopwatch watch;
    child.hash = fn();
    child.wall_ms = watch.elapsed_ms();
    child.rss_kb = bench::peak_rss_kb();
    child.ok = true;
    ssize_t ignored = write(fds[1], &child, sizeof child);
    (void)ignored;
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  if (pid > 0) {
    std::size_t got = 0;
    auto* p = reinterpret_cast<char*>(&r);
    while (got < sizeof r) {
      const ssize_t n = read(fds[0], p + got, sizeof r - got);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    if (got != sizeof r || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      r.ok = false;
    }
  }
  close(fds[0]);
#else
  bench::Stopwatch watch;
  r.hash = fn();
  r.wall_ms = watch.elapsed_ms();
  r.rss_kb = bench::peak_rss_kb();
  r.ok = true;
#endif
  return r;
}

// ------------------------------------------------------------ table (a)

void memory_table() {
  const std::size_t n = memory_runs();
  const std::size_t fleet = fleet_runs();
  const std::size_t threads = bench_threads();
  const std::size_t iters = 400;

  std::printf("(a) aggregation memory: retained fold vs streaming engine "
              "(peak RSS per forked child)\n\n");
  std::printf("%-26s | %-8s %-12s %-10s\n", "engine", "runs", "peak RSS[MB]",
              "wall[ms]");
  bench::print_rule(64);

  const auto scenario = make_scenario(iters, 0, /*heavy_health=*/true);
  const ChildResult retained = measure_in_child([&] {
    return fault::fnv1a(retained_report_json(
        campaign_options("e14_mem", n, threads), scenario));
  });
  const ChildResult streaming = measure_in_child([&] {
    campaign::CampaignEngine engine(
        engine_options("e14_mem", n, threads, "E14_mem_stream"));
    return fault::fnv1a(engine.run(scenario).report.to_json());
  });
  const ChildResult fleet_stream = measure_in_child([&] {
    campaign::CampaignEngine engine(
        engine_options("e14_fleet", fleet, threads, "E14_fleet_stream"));
    return fault::fnv1a(engine.run(scenario).report.to_json());
  });

  std::printf("%-26s | %-8zu %-12.1f %-10.1f\n", "retained (fold)",
              n, retained.rss_kb / 1024.0, retained.wall_ms);
  std::printf("%-26s | %-8zu %-12.1f %-10.1f\n", "streaming (engine)", n,
              streaming.rss_kb / 1024.0, streaming.wall_ms);
  std::printf("%-26s | %-8zu %-12.1f %-10.1f\n", "streaming (engine)", fleet,
              fleet_stream.rss_kb / 1024.0, fleet_stream.wall_ms);

  // Retained growth is linear in runs; extrapolate its fleet-scale RSS
  // from the measured per-run retention cost and compare against the
  // streaming engine's MEASURED fleet-scale RSS.
  const double per_run_kb =
      (retained.rss_kb - streaming.rss_kb) / static_cast<double>(n);
  const double retained_fleet_kb =
      streaming.rss_kb + per_run_kb * static_cast<double>(fleet);
  const double ratio = fleet_stream.rss_kb > 0.0
                           ? retained_fleet_kb / fleet_stream.rss_kb
                           : 0.0;
  std::printf("%-26s | %-8zu %-12.1f (extrapolated, %.1f kB/run retained)\n",
              "retained (extrapolated)", fleet, retained_fleet_kb / 1024.0,
              per_run_kb);
  std::printf("\nfleet-scale RSS ratio (retained extrapolated / streaming "
              "measured): %.1fx, identical reports: %s\n\n",
              ratio,
              retained.hash == streaming.hash ? "yes" : "NO");

  bench::summarize("e14.mem.retained_rss_kb", retained.rss_kb);
  bench::summarize("e14.mem.stream_rss_kb", streaming.rss_kb);
  bench::summarize("e14.mem.fleet_runs", static_cast<double>(fleet));
  bench::summarize("e14.mem.fleet_stream_rss_kb", fleet_stream.rss_kb);
  bench::summarize("e14.mem.rss_ratio", ratio);
  bench::summarize("e14.mem.report_identical",
                   retained.ok && streaming.ok &&
                           retained.hash == streaming.hash
                       ? 1.0
                       : 0.0);
  bench::summarize("e14.fleet.runs_per_s",
                   fleet_stream.wall_ms > 0.0
                       ? 1000.0 * static_cast<double>(fleet) /
                             fleet_stream.wall_ms
                       : 0.0);
}

// ------------------------------------------------------------ table (b)

void steal_table() {
  const std::size_t n = steal_runs();
  const std::size_t threads = bench_threads();
  const std::size_t iters = bench::smoke() ? 2000 : 4000;
  const std::size_t heavy_front = n / 8;

  std::printf("(b) straggler mix (front %zu/%zu runs cost 8x): static "
              "tiling vs work stealing, %zu threads\n\n",
              heavy_front, n, threads);
  std::printf("%-26s | %-10s %-10s %-8s %-8s\n", "schedule", "wall[ms]",
              "runs/s", "steals", "speedup");
  bench::print_rule(70);

  const auto scenario = make_scenario(iters, heavy_front, false);
  auto run_once = [&](bool contiguous, bool stealing, campaign::StreamStats& sched) {
    campaign::EngineOptions eo = engine_options(
        "e14_steal", n, threads,
        contiguous ? "E14_steal_static" : "E14_steal_ws");
    eo.contiguous = contiguous;
    eo.stealing = stealing;
    campaign::CampaignEngine engine(eo);
    auto result = engine.run(scenario);
    sched = result.sched;
    return fault::fnv1a(result.report.to_json());
  };

  campaign::StreamStats static_sched;
  bench::Stopwatch static_watch;
  const std::uint64_t static_hash = run_once(true, false, static_sched);
  const double static_ms = static_watch.elapsed_ms();
  const double static_rps = 1000.0 * static_cast<double>(n) / static_ms;
  std::printf("%-26s | %-10.1f %-10.1f %-8llu %-8s\n",
              "static contiguous", static_ms, static_rps,
              static_cast<unsigned long long>(static_sched.steals), "1.00");

  campaign::StreamStats ws_sched;
  bench::Stopwatch ws_watch;
  const std::uint64_t ws_hash = run_once(false, true, ws_sched);
  const double ws_ms = ws_watch.elapsed_ms();
  const double ws_rps = 1000.0 * static_cast<double>(n) / ws_ms;
  const double speedup = ws_rps / static_rps;
  std::printf("%-26s | %-10.1f %-10.1f %-8llu %-8.2f\n",
              "cyclic + steal-half", ws_ms, ws_rps,
              static_cast<unsigned long long>(ws_sched.steals), speedup);

  std::printf("\nsteal speedup: %.2fx (identical outputs: %s, window "
              "waits: %llu, peak pending groups: %zu)\n\n",
              speedup, static_hash == ws_hash ? "yes" : "NO",
              static_cast<unsigned long long>(ws_sched.window_waits),
              ws_sched.peak_pending_groups);

  bench::summarize("e14.steal.static_runs_per_s", static_rps);
  bench::summarize("e14.steal.ws_runs_per_s", ws_rps);
  bench::summarize("e14.steal.speedup", speedup);
  bench::summarize("e14.steal.steals", static_cast<double>(ws_sched.steals));
  bench::summarize("e14.steal.identical",
                   static_hash == ws_hash ? 1.0 : 0.0);
}

// ------------------------------------------------------------ table (c)

void identity_table() {
  const std::size_t n = identity_runs();
  const std::size_t iters = 200;
  const auto scenario = make_scenario(iters, n / 8, true);

  std::printf("(c) determinism: campaign JSON across engines/threads/"
              "batches\n\n");

  const std::string expect =
      retained_report_json(campaign_options("e14_ident", n, 1), scenario);

  struct Config {
    const char* label;
    std::size_t threads;
    std::size_t batch;
    bool contiguous;
  };
  const Config configs[] = {
      {"engine t1", 1, 1, false},
      {"engine t2", 2, 1, false},
      {"engine t8", 8, 1, false},
      {"engine t4 b8", 4, 8, false},
      {"engine t4 contiguous", 4, 1, true},
  };
  bool all_identical = true;
  for (const Config& c : configs) {
    campaign::EngineOptions eo =
        engine_options("e14_ident", n, c.threads, "E14_ident");
    eo.campaign.batch = c.batch;
    eo.contiguous = c.contiguous;
    const auto result = campaign::CampaignEngine(eo).run(scenario);
    const bool same = result.report.to_json() == expect;
    all_identical = all_identical && same;
    std::printf("  %-22s vs retained fold: %s\n", c.label,
                same ? "byte-identical" : "DIFFERS");
  }
  std::printf("\n");
  bench::summarize("e14.identity.all_identical", all_identical ? 1.0 : 0.0);
}

// ------------------------------------------------------------ table (d)

void resume_table() {
  const std::size_t n = identity_runs();
  const std::size_t iters = 200;
  const std::size_t every = n / 4;
  const auto scenario = make_scenario(iters, 0, true);

  std::printf("(d) checkpoint/resume: child killed after a checkpoint "
              "seal, campaign resumed\n\n");

  std::filesystem::remove_all("E14_resume_full");
  std::filesystem::remove_all("E14_resume_kill");

  auto options_for = [&](const char* dir) {
    campaign::EngineOptions eo =
        engine_options("e14_resume", n, 2, dir);
    eo.write_run_artifacts = true;
    eo.checkpoint_every = every;
    return eo;
  };

  // The uninterrupted reference.
  const auto full =
      campaign::CampaignEngine(options_for("E14_resume_full")).run(scenario);

  bool killed = false;
  bool resumed_identical = false;
#if defined(__unix__)
  const pid_t pid = fork();
  if (pid == 0) {
    campaign::EngineOptions eo = options_for("E14_resume_kill");
    eo.on_checkpoint = [](const campaign::CheckpointState&) { _exit(42); };
    campaign::CampaignEngine(eo).run(scenario);
    _exit(0);  // not reached: the first seal kills the child
  }
  int status = 0;
  waitpid(pid, &status, 0);
  killed = WIFEXITED(status) && WEXITSTATUS(status) == 42;
#endif
  if (killed) {
    const auto resumed =
        campaign::CampaignEngine(options_for("E14_resume_kill"))
            .run(scenario);
    resumed_identical =
        resumed.resumed &&
        resumed.report.to_json() == full.report.to_json() &&
        slurp("E14_resume_kill/MANIFEST.jsonl") ==
            slurp("E14_resume_full/MANIFEST.jsonl");
    std::printf("  child killed after checkpoint (watermark %zu), resumed "
                "at %zu/%zu: report + manifest %s\n\n",
                resumed.resume_start, resumed.resume_start, n,
                resumed_identical ? "byte-identical" : "DIFFER");
  } else {
    std::printf("  fork/kill unavailable on this platform — resume "
                "identity covered by tests/campaign_test.cpp\n\n");
  }
  bench::summarize("e14.resume.killed", killed ? 1.0 : 0.0);
  bench::summarize("e14.resume.identical", resumed_identical ? 1.0 : 0.0);
}

void print_table() {
  std::printf("E14: fleet-scale campaign engine — streaming aggregation, "
              "work stealing, checkpoint/resume\n\n");
  memory_table();
  steal_table();
  identity_table();
  resume_table();
  std::printf("expected shape: retained memory grows ~linearly with runs "
              "while the streaming engine stays\nO(sites + window); the CI "
              "gate holds e14.mem.rss_ratio >= 10, e14.steal.speedup >= "
              "1.3 and\nevery identity/resume flag at 1.\n\n");
}

// -------------------------------------------------- microbenchmarks

void BM_StreamCampaign(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::size_t runs = 256;
  const auto scenario = make_scenario(200, runs / 8, false);
  for (auto _ : state) {
    campaign::CampaignEngine engine(
        engine_options("e14_bm", runs, threads, "E14_bm"));
    auto result = engine.run(scenario);
    benchmark::DoNotOptimize(result.report.faults_injected);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(runs));
}
BENCHMARK(BM_StreamCampaign)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

IECD_BENCH_MAIN(print_table)
