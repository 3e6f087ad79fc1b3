// E3 (Fig. 6.2) — PIL communication over the byte-timed RS232 line.  The
// paper: "Even though the communication over RS232 is very slow, the main
// advantage of this interface is that it is present on any development
// board."  The table sweeps the baud rate and shows where the serial line
// stops fitting into the control period: round trip, per-step wire time,
// overhead share, deadline misses, and the resulting control quality.
// Expected shape: at low baud the exchange takes longer than the period
// (misses, loop degrades); from ~115200 up the loop closes comfortably and
// quality converges to the MIL result.
//
// The sweep rides exec::SweepRunner: every transport point (MIL reference,
// each baud, each SPI clock) is an independent scenario, fanned out across
// the host threads and merged in index order, so the printed table and the
// recorded summary are byte-identical to a sequential run.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/case_study.hpp"
#include "exec/sweep.hpp"

using namespace iecd;

namespace {

core::ServoConfig bench_config() {
  core::ServoConfig cfg;
  cfg.duration_s = bench::smoke() ? 0.2 : 2.0;
  return cfg;
}

constexpr std::uint32_t kBauds[] = {9600,   19200,  38400, 57600,
                                    115200, 230400, 460800};
constexpr std::uint32_t kSpiClocks[] = {250000, 1000000, 4000000};
constexpr int kBatchFactors[] = {1, 2, 4, 8};
constexpr std::size_t kBaudCount = std::size(kBauds);
constexpr std::size_t kSpiCount = std::size(kSpiClocks);
// Scenario index layout: 0 = MIL reference, then bauds, then SPI clocks.
constexpr std::size_t kPointCount = 1 + kBaudCount + kSpiCount;

/// One sweep point: runs its own ServoSystem and records unprefixed gauges
/// into the registry it was handed (read back per-run for the table).
void run_point(std::size_t index, trace::MetricsRegistry& m) {
  core::ServoSystem servo(bench_config());
  if (index == 0) {
    m.gauge("iae") = servo.run_mil().iae;
    return;
  }
  core::ServoSystem::PilRunOptions opts;
  if (index <= kBaudCount) {
    opts.baud = kBauds[index - 1];
  } else {
    opts.baud = kSpiClocks[index - 1 - kBaudCount];
    opts.link = pil::PilSession::LinkKind::kSpi;
  }
  const auto pil = servo.run_pil(opts);
  m.gauge("rtt_us") = pil.report.round_trip_us().mean();
  m.gauge("comm_us") = pil.report.comm_time_per_step_us;
  m.gauge("overhead") = pil.report.comm_overhead_ratio;
  m.gauge("misses") = static_cast<double>(pil.report.deadline_misses);
  m.gauge("iae") = pil.iae;
  m.gauge("final") = pil.speed.last_value();
  m.gauge("settled") = pil.metrics.settled ? 1.0 : 0.0;
  if (const double* g =
          pil.report.metrics.find_gauge("pil.events_per_exchange")) {
    m.gauge("events_per_exchange") = *g;
  }
}

void print_table() {
  std::printf("E3: PIL exchange vs baud rate (1 kHz control loop)\n\n");

  exec::SweepRunner runner;
  bench::Stopwatch sw;
  const auto res = runner.run(kPointCount, run_point);
  const double wall_ms = sw.elapsed_ms();

  const auto g = [&res](std::size_t i, const char* name) {
    const double* v = res.per_run[i].find_gauge(name);
    return v ? *v : 0.0;
  };

  std::printf("MIL reference IAE: %.3f\n\n", g(0, "iae"));
  bench::summarize("mil.iae", g(0, "iae"));

  std::printf("%-8s | %-10s %-12s %-10s %-8s %-9s %-9s %-8s %-9s\n", "baud",
              "rtt[us]", "comm[us/st]", "overhead", "misses", "IAE", "final",
              "settled", "ev/exch");
  bench::print_rule(98);
  bool rtt_monotonic = true;
  for (std::size_t b = 0; b < kBaudCount; ++b) {
    const std::size_t i = 1 + b;
    std::printf(
        "%-8u | %-10.1f %-12.1f %-9.1f%% %-8.0f %-9.3f %-9.2f %-8s %-9.1f\n",
        kBauds[b], g(i, "rtt_us"), g(i, "comm_us"), g(i, "overhead") * 100.0,
        g(i, "misses"), g(i, "iae"), g(i, "final"),
        g(i, "settled") != 0.0 ? "yes" : "NO", g(i, "events_per_exchange"));
    if (b > 0 && g(i, "rtt_us") > g(i - 1, "rtt_us")) rtt_monotonic = false;
    const std::string key = "rs232." + std::to_string(kBauds[b]);
    bench::summarize(key + ".rtt_us", g(i, "rtt_us"));
    bench::summarize(key + ".overhead", g(i, "overhead"));
    bench::summarize(key + ".iae", g(i, "iae"));
    bench::summarize(key + ".misses", g(i, "misses"));
    bench::summarize(key + ".events_per_exchange",
                     g(i, "events_per_exchange"));
  }
  // A faster line must never report a slower round trip: this is the E3
  // sanity check that caught the sent-timestamp aliasing bug.
  std::printf("\nRTT vs baud monotonicity: %s\n",
              rtt_monotonic ? "ok (rtt falls as baud rises)"
                            : "VIOLATED (rtt rises with baud)");
  bench::summarize("rs232.rtt_monotonic", rtt_monotonic ? 1.0 : 0.0);

  std::printf("\nextension (paper future work): the same exchange over a "
              "synchronous SPI link\n\n");
  std::printf("%-10s | %-10s %-12s %-10s %-8s %-9s\n", "SPI clock",
              "rtt[us]", "comm[us/st]", "overhead", "misses", "IAE");
  bench::print_rule(66);
  for (std::size_t s = 0; s < kSpiCount; ++s) {
    const std::size_t i = 1 + kBaudCount + s;
    std::printf("%-10u | %-10.1f %-12.1f %-9.1f%% %-8.0f %-9.3f\n",
                kSpiClocks[s], g(i, "rtt_us"), g(i, "comm_us"),
                g(i, "overhead") * 100.0, g(i, "misses"), g(i, "iae"));
    const std::string key = "spi." + std::to_string(kSpiClocks[s]);
    bench::summarize(key + ".rtt_us", g(i, "rtt_us"));
    bench::summarize(key + ".iae", g(i, "iae"));
  }

  std::printf("\nsweep wall time: %.1f ms across %zu points (%zu threads)\n",
              wall_ms, res.runs, res.threads_used);
  bench::summarize("sweep.wall_ms", wall_ms);

  // Batched exchange at 115200 baud: batch = 1 is the classic per-period
  // protocol (bit-identical to the main table's 115200 row); higher
  // factors pack N control steps into one frame, cutting the per-step
  // framing overhead and event count at the cost of N-1 periods of
  // actuation latency.  Runs outside the timed sweep above.
  std::printf("\nbatched exchange at 115200 baud (N control steps per "
              "frame)\n\n");
  std::printf("%-6s | %-10s %-8s %-9s %-9s\n", "batch", "rtt[us]", "misses",
              "IAE", "ev/exch");
  bench::print_rule(50);
  exec::SweepRunner batch_runner;
  const auto bres =
      batch_runner.run(std::size(kBatchFactors),
                       [](std::size_t index, trace::MetricsRegistry& m) {
                         core::ServoSystem servo(bench_config());
                         core::ServoSystem::PilRunOptions opts;
                         opts.baud = 115200;
                         opts.batch = kBatchFactors[index];
                         const auto pil = servo.run_pil(opts);
                         m.gauge("rtt_us") = pil.report.round_trip_us().mean();
                         m.gauge("misses") =
                             static_cast<double>(pil.report.deadline_misses);
                         m.gauge("iae") = pil.iae;
                         if (const double* g = pil.report.metrics.find_gauge(
                                 "pil.events_per_exchange")) {
                           m.gauge("events_per_exchange") = *g;
                         }
                       });
  const auto bg = [&bres](std::size_t i, const char* name) {
    const double* v = bres.per_run[i].find_gauge(name);
    return v ? *v : 0.0;
  };
  for (std::size_t i = 0; i < std::size(kBatchFactors); ++i) {
    std::printf("%-6d | %-10.1f %-8.0f %-9.3f %-9.1f\n", kBatchFactors[i],
                bg(i, "rtt_us"), bg(i, "misses"), bg(i, "iae"),
                bg(i, "events_per_exchange"));
    const std::string key = "batch." + std::to_string(kBatchFactors[i]);
    bench::summarize(key + ".iae", bg(i, "iae"));
    bench::summarize(key + ".misses", bg(i, "misses"));
    bench::summarize(key + ".events_per_exchange",
                     bg(i, "events_per_exchange"));
  }

  std::printf("\n(controller execution on the board: the same generated "
              "code in every row;\n only the communication budget "
              "changes.)\n\n");
}

void BM_PilExchange115200(benchmark::State& state) {
  for (auto _ : state) {
    auto cfg = bench_config();
    cfg.duration_s = 0.2;
    core::ServoSystem servo(cfg);
    auto result = servo.run_pil({.baud = 115200});
    benchmark::DoNotOptimize(result.report.exchanges);
  }
}
BENCHMARK(BM_PilExchange115200)->Unit(benchmark::kMillisecond);

void BM_FrameEncodeDecode(benchmark::State& state) {
  pil::FrameDecoder decoder;
  std::uint64_t decoded = 0;
  decoder.set_callback([&](const pil::Frame&) { ++decoded; });
  pil::Frame frame;
  frame.payload = pil::encode_signals({1.0, 2.0, 3.0, 4.0});
  const auto bytes = pil::encode_frame(frame);
  for (auto _ : state) {
    for (std::uint8_t b : bytes) decoder.feed(b);
  }
  benchmark::DoNotOptimize(decoded);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_FrameEncodeDecode);

void BM_SerialLinkThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::World world;
    sim::SerialConfig cfg;
    cfg.baud_rate = 460800;
    sim::SerialLink link(world, cfg);
    std::uint64_t received = 0;
    link.a_to_b().set_receiver(
        [&](std::uint8_t, sim::SimTime) { ++received; });
    for (int i = 0; i < 512; ++i) {
      link.a_to_b().transmit(static_cast<std::uint8_t>(i));
    }
    world.run_for(sim::seconds_i(1));
    benchmark::DoNotOptimize(received);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_SerialLinkThroughput);

}  // namespace

IECD_BENCH_MAIN(print_table)
