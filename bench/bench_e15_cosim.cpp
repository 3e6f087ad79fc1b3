// E15 — co-simulation master (src/cosim/): the networked servo farm as a
// scaling and determinism benchmark.  The paper's target systems are
// "embedded controllers having distributed nature"; E10 measured one loop
// split across three nodes, E15 scales the composition axis — N servo
// nodes plus a supervisor negotiated by the step-negotiation master over
// one shared CAN bus.  Three tables plus the campaign gate:
//
//   (a) node-count sweep (2 -> 16 bus nodes): master cost — wall time,
//       runs/s, negotiations, events — and control quality (mean |err|,
//       bus utilisation) as the farm grows.
//   (b) bit-rate sweep at 16 nodes: the full farm against a shrinking
//       bus, down to where status/command traffic saturates the wire.
//   (c) determinism: the default-plan farm campaign's merged report JSON
//       plus the evidence MANIFEST.jsonl byte-compared across 1/2/8
//       campaign threads.
//   (d) campaign gate: the 16-node farm under the default fault plan —
//       node kills, degrades, bus corruption, encoder glitches — must
//       recover on EVERY run (e15.campaign.unrecovered == 0).
//
// Workload overrides (bench_util.hpp): --runs=N resizes the gate
// campaign, --threads=N its fan-out width.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "campaign/engine.hpp"
#include "cosim/farm.hpp"
#include "fault/campaign.hpp"

using namespace iecd;

namespace {

// Servo counts for the node sweep; total bus nodes = servos + supervisor.
constexpr std::size_t kServoCounts[] = {1, 3, 7, 11, 15};
constexpr std::uint32_t kBitrates[] = {1000000, 500000, 250000, 125000};

double farm_duration() { return bench::smoke() ? 0.25 : 1.0; }

std::size_t gate_runs() {
  if (bench::overrides().runs > 0) return bench::overrides().runs;
  return bench::smoke() ? 6 : 16;
}

std::size_t gate_threads() {
  if (bench::overrides().threads > 0) return bench::overrides().threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 4 ? 4 : (hw >= 2 ? 2 : 1);
}

cosim::FarmConfig farm_config(std::size_t servos, std::uint32_t bitrate) {
  cosim::FarmConfig cfg;
  cfg.servo_count = servos;
  cfg.bitrate_bps = bitrate;
  cfg.duration_s = farm_duration();
  cfg.traffic_frames_per_s = 300.0;  // background chatter, as in E10
  return cfg;
}

cosim::FarmResult run_clean_farm(const cosim::FarmConfig& cfg) {
  cosim::ServoFarm farm(cosim::make_farm_topology(cfg),
                        {cfg.duration_s, cfg.settle_tolerance, nullptr,
                         nullptr});
  return farm.run();
}

std::size_t settled_count(const cosim::FarmResult& r) {
  std::size_t settled = 0;
  for (const auto& n : r.nodes) settled += n.settled ? 1 : 0;
  return settled;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// ------------------------------------------------------------ table (a)

void node_sweep_table() {
  std::printf("(a) node-count sweep (500 kbit/s, %.2f s horizon)\n\n",
              farm_duration());
  std::printf("%-7s | %-9s %-8s %-10s %-12s %-12s %-10s %-8s\n", "nodes",
              "wall[ms]", "runs/s", "mean|err|", "bus busy[%]", "negotiate",
              "events", "settled");
  bench::print_rule(88);

  for (const std::size_t servos : kServoCounts) {
    const auto cfg = farm_config(servos, 500000);
    bench::Stopwatch watch;
    const auto r = run_clean_farm(cfg);
    const double wall_ms = watch.elapsed_ms();
    const std::size_t total_nodes = servos + 1;
    std::printf("%-7zu | %-9.1f %-8.1f %-10.4f %-12.1f %-12llu %-10llu "
                "%zu/%zu\n",
                total_nodes, wall_ms,
                wall_ms > 0.0 ? 1000.0 / wall_ms : 0.0, r.mean_abs_error,
                r.bus_utilisation * 100.0,
                static_cast<unsigned long long>(r.negotiations),
                static_cast<unsigned long long>(r.events_executed),
                settled_count(r), r.nodes.size());
    const std::string key = "e15.nodes." + std::to_string(total_nodes);
    bench::summarize(key + ".wall_ms", wall_ms);
    bench::summarize(key + ".runs_per_s",
                     wall_ms > 0.0 ? 1000.0 / wall_ms : 0.0);
    bench::summarize(key + ".mean_abs_error", r.mean_abs_error);
    bench::summarize(key + ".bus_utilisation", r.bus_utilisation);
    bench::summarize(key + ".recovered", r.recovered ? 1.0 : 0.0);
  }
  std::printf("\n");
}

// ------------------------------------------------------------ table (b)

void bitrate_table() {
  std::printf("(b) bit-rate sweep at 16 nodes (15 servos + supervisor)\n\n");
  std::printf("%-10s | %-9s %-8s %-10s %-12s %-8s %-10s\n", "bitrate",
              "wall[ms]", "runs/s", "mean|err|", "bus busy[%]", "stale",
              "settled");
  bench::print_rule(76);

  for (const std::uint32_t bitrate : kBitrates) {
    const auto cfg = farm_config(15, bitrate);
    bench::Stopwatch watch;
    const auto r = run_clean_farm(cfg);
    const double wall_ms = watch.elapsed_ms();
    std::printf("%-10u | %-9.1f %-8.1f %-10.4f %-12.1f %-8zu %zu/%zu\n",
                bitrate, wall_ms, wall_ms > 0.0 ? 1000.0 / wall_ms : 0.0,
                r.mean_abs_error, r.bus_utilisation * 100.0, r.stale_count,
                settled_count(r), r.nodes.size());
    const std::string key = "e15.bitrate." + std::to_string(bitrate);
    bench::summarize(key + ".mean_abs_error", r.mean_abs_error);
    bench::summarize(key + ".bus_utilisation", r.bus_utilisation);
    bench::summarize(key + ".settled",
                     static_cast<double>(settled_count(r)));
  }
  std::printf("\n");
}

// ------------------------------------------------------------ table (c)

void identity_table() {
  const std::size_t runs = bench::smoke() ? 4 : 8;
  auto cfg = farm_config(15, 500000);
  cfg.duration_s = bench::smoke() ? 0.15 : 0.3;

  std::printf("(c) determinism: default-plan farm campaign across sweep "
              "threads (%zu runs, %.2f s horizon)\n\n",
              runs, cfg.duration_s);

  auto campaign_options = [&](std::size_t threads) {
    fault::CampaignOptions options;
    options.name = "e15_ident";
    options.seed = 2026;
    options.runs = runs;
    options.threads = threads;
    options.plan = fault::FaultPlan::defaults();
    return options;
  };

  std::string ref_json;
  std::string ref_manifest;
  bool reports_identical = true;
  bool manifests_identical = true;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const std::string dir = "E15_ident_t" + std::to_string(threads);
    std::filesystem::remove_all(dir);
    campaign::EngineOptions eo;
    eo.campaign = campaign_options(threads);
    eo.evidence_dir = dir;
    eo.write_run_artifacts = false;
    const campaign::EngineResult er =
        campaign::CampaignEngine(eo).run(cosim::make_farm_scenario(cfg));
    const std::string json = er.report.to_json();
    const std::string manifest = slurp(er.evidence.manifest_path);

    bool json_same = true;
    bool manifest_same = true;
    if (threads == 1) {
      ref_json = json;
      ref_manifest = manifest;
    } else {
      json_same = json == ref_json;
      manifest_same = manifest == ref_manifest;
    }
    reports_identical = reports_identical && json_same;
    manifests_identical = manifests_identical && manifest_same;
    std::printf("  t%zu vs t1 reference: report %s, manifest %s\n", threads,
                json_same ? "byte-identical" : "DIFFERS",
                manifest_same ? "byte-identical" : "DIFFERS");
  }
  std::printf("\n");
  bench::summarize("e15.identity.report_identical",
                   reports_identical ? 1.0 : 0.0);
  bench::summarize("e15.identity.manifest_identical",
                   manifests_identical ? 1.0 : 0.0);
}

// ------------------------------------------------------------ table (d)

void campaign_gate_table() {
  const std::size_t runs = gate_runs();
  const std::size_t threads = gate_threads();
  auto cfg = farm_config(15, 500000);
  cfg.duration_s = bench::smoke() ? 0.3 : 0.5;

  std::printf("(d) campaign gate: 16-node farm, default fault plan "
              "(%zu runs, %zu threads)\n\n",
              runs, threads);

  campaign::EngineOptions eo;
  eo.campaign.name = "e15_farm";
  eo.campaign.seed = 777;
  eo.campaign.runs = runs;
  eo.campaign.threads = threads;
  eo.campaign.plan = fault::FaultPlan::defaults();

  bench::Stopwatch watch;
  const fault::CampaignReport report =
      campaign::CampaignEngine(eo).run(cosim::make_farm_scenario(cfg)).report;
  const double wall_ms = watch.elapsed_ms();
  const double runs_per_s =
      wall_ms > 0.0 ? 1000.0 * static_cast<double>(runs) / wall_ms : 0.0;

  std::printf("  %zu runs in %.1f ms (%.1f runs/s): %llu faults injected, "
              "%llu unrecovered\n\n",
              runs, wall_ms, runs_per_s,
              static_cast<unsigned long long>(report.faults_injected),
              static_cast<unsigned long long>(report.unrecovered));

  bench::summarize("e15.campaign.runs", static_cast<double>(runs));
  bench::summarize("e15.campaign.runs_per_s", runs_per_s);
  bench::summarize("e15.campaign.faults_injected",
                   static_cast<double>(report.faults_injected));
  bench::summarize("e15.campaign.unrecovered",
                   static_cast<double>(report.unrecovered));
}

void print_table() {
  std::printf("E15: co-simulation master — networked servo farm scaling, "
              "determinism, fault campaign\n\n");
  node_sweep_table();
  bitrate_table();
  identity_table();
  campaign_gate_table();
  std::printf("expected shape: master cost grows ~linearly with node count "
              "(bus frames dominate the\nevent budget); at 125 kbit/s the "
              "16-node status+command traffic saturates the wire.  The\nCI "
              "gate holds both identity flags at 1 and "
              "e15.campaign.unrecovered at 0.\n\n");
}

// -------------------------------------------------- microbenchmarks

void BM_FarmRun(benchmark::State& state) {
  const auto servos = static_cast<std::size_t>(state.range(0));
  auto cfg = farm_config(servos, 500000);
  cfg.duration_s = 0.2;
  for (auto _ : state) {
    const auto r = run_clean_farm(cfg);
    benchmark::DoNotOptimize(r.mean_abs_error);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(servos + 1));
}
BENCHMARK(BM_FarmRun)->Arg(3)->Arg(15)->Unit(benchmark::kMillisecond);

}  // namespace

IECD_BENCH_MAIN(print_table)
