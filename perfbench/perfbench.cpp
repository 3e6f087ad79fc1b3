// perfbench — the repository benchmark.
//
//   perfbench --workload <mil|mil_batch|farm16|pil_campaign> --seed N
//             --seconds S --trace <0|1> [--work-dir DIR] [--setup-once 1]
//
// --setup-once 1 runs only the workload's set-up and prints its CPU time;
// the benchmark starts such copies of itself to time cold set-ups.
//
// Runs one seeded, closed-loop workload through the library's public APIs
// for S seconds, checks every run's output, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) as
// the JSON object on the last line of standard output.  Everything is
// measured from outside the library: the benchmark times its own calls
// into each module and reads counts from public result structs.
// README.md gives the workloads, metric definitions and the layer map.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "batch/servo_batch.hpp"
#include "campaign/engine.hpp"
#include "core/case_study.hpp"
#include "core/peert.hpp"
#include "cosim/farm.hpp"
#include "evidence/verify.hpp"
#include "fault/campaign.hpp"
#include "fault/plan.hpp"
#include "fault/rng.hpp"
#include "obs/health_report.hpp"
#include "obs/monitor.hpp"
#include "spans.hpp"

using namespace iecd;

namespace perfbench {
namespace {

using Stats = std::map<std::string, double>;

// ------------------------------------------------------------ statistics

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Percentile of run_ms_tail, the same on every workload.  Not the highest
/// percentile the sample count allows: a burst of host contention that
/// covers a hundredth of a run moves p99, and on mil p99 spread 30 % over
/// five runs of the same code against 3 % at p90.  It never falls back to a
/// lower one; too few samples beyond it make the run fail instead.
constexpr double kTailPct = 90.0;

struct Tail {
  double value = 0.0;
  bool enough = false;  ///< at least ten samples lie beyond the percentile
};

Tail tail_of(const std::vector<double>& v) {
  return {percentile(v, kTailPct),
          static_cast<double>(v.size()) * (100.0 - kTailPct) >= 1000.0};
}

/// CPU time of this process (all threads) or of the calling thread [ns].
/// Host time in the end-to-end metrics is CPU time: on a shared virtual
/// machine, wall time also counts the time the hypervisor gives to other
/// tenants (steal), which the code under test cannot affect.
std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return std::int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

/// Peak RSS of this process image.  VmHWM starts afresh at exec, unlike
/// ru_maxrss, which keeps the high-water mark of the launching process.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kB
}

// ------------------------------------------------------ host calibration

std::atomic<std::uint64_t> g_spin_sink{0};

/// xorshift spin for `seconds`; returns millions of iterations per second.
double spin_mops(double seconds) {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    for (int k = 0; k < (1 << 16); ++k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    iters += 1 << 16;
    elapsed = static_cast<double>(ns_between(start, Clock::now())) * 1e-9;
  } while (elapsed < seconds);
  g_spin_sink.fetch_add(x, std::memory_order_relaxed);
  return static_cast<double>(iters) / elapsed * 1e-6;
}

struct HostCalibration {
  double spin_mops = 0.0;  ///< single-thread spin rate
  double par2_eff = 0.0;   ///< 2-thread aggregate rate / (2 x single rate)
};

HostCalibration calibrate() {
  constexpr double kSpinSeconds = 0.05;
  HostCalibration cal;
  cal.spin_mops = spin_mops(kSpinSeconds);
  double rates[2] = {0.0, 0.0};
  std::thread other([&rates] { rates[1] = spin_mops(kSpinSeconds); });
  rates[0] = spin_mops(kSpinSeconds);
  other.join();
  cal.par2_eff = (rates[0] + rates[1]) / (2.0 * cal.spin_mops);
  return cal;
}

// ------------------------------------------------------- seeded inputs

/// Independent stream per (seed, index, purpose).
fault::Xoshiro256ss stream(std::uint64_t seed, std::uint64_t index,
                           std::uint64_t purpose) {
  return fault::Xoshiro256ss(
      fault::SplitMix64(seed * 0x100000001B3ULL + purpose).next() ^
      (index * 0x9E3779B97F4A7C15ULL));
}

/// One seeded servo case: set-point, PI gains and a load-torque step.  The
/// ranges sit inside the loop's stable region, so every case settles.
struct ServoCase {
  core::ServoConfig config;
  double load_nm = 0.0;
  double load_time_s = 0.0;

  plant::LoadTorque load() const {
    const double tau = load_nm;
    const double t0 = load_time_s;
    return [tau, t0](double t, double) { return t >= t0 ? tau : 0.0; };
  }
};

ServoCase servo_case(std::uint64_t seed, std::uint64_t index) {
  auto rng = stream(seed, index, 1);
  ServoCase c;
  c.config.setpoint = rng.uniform(80.0, 140.0);
  c.config.kp = rng.uniform(0.003, 0.005);
  c.config.ki = rng.uniform(0.09, 0.15);
  c.load_nm = rng.uniform(0.0, 0.01);
  c.load_time_s = rng.uniform(0.3, 0.5);
  return c;
}

bool finite_run(double iae, const model::SampleLog& speed) {
  return std::isfinite(iae) && !speed.empty() &&
         std::isfinite(speed.last_value());
}

// ------------------------------------------------------------ workloads

struct UnitOutcome {
  std::uint64_t attempted = 0;  ///< runs (lanes on mil_batch)
  std::uint64_t failed = 0;
  double sim_s = 0.0;           ///< simulated seconds advanced
  /// Per-call host times [ms]; empty = the whole unit is one sample.
  std::vector<double> call_ms;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed preparation before each set-up.
  virtual void prepare(SpanRecorder*) {}
  /// One set-up (timed cold by the caller).
  virtual void setup(SpanRecorder* rec) = 0;
  /// Units whose simulated statistics are compared across phases and
  /// invocations; every phase runs at least this many.
  virtual std::size_t reference_units() const = 0;
  /// One unit of work.  Adds simulated statistics to \p stats (reference
  /// units only, else null) and host-side work counts to \p counts.
  virtual UnitOutcome run_unit(std::size_t index, SpanRecorder* rec,
                               Stats* stats, Stats& counts) = 0;
  /// Untimed extra check after unit \p index; false = wrong output.
  virtual bool offline_check(std::size_t) { return true; }
  /// Turns summed reference statistics into the reported ones.
  virtual void finalize_stats(Stats&) const {}
  /// Untimed extra probes in the traced run.
  virtual void trace_probes(SpanRecorder&) {}
  /// Per-layer metrics from the traced phase's spans and counts.
  virtual void layers(const SpanRecorder& rec, const Stats& counts,
                      std::size_t units, Stats& out) const = 0;
};

// mil: scalar ServoSystem::run_mil, one seeded case per run.
class MilWorkload : public Workload {
 public:
  explicit MilWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanRecorder* rec) override {
    SpanScope root(rec, "setup", 0, 0);
    SpanScope build(rec, "core.build", root.id(), 0);
    core::ServoSystem servo(servo_case(seed_, 0).config);
    if (servo.validate().has_errors()) std::abort();
  }

  std::size_t reference_units() const override { return 200; }

  UnitOutcome run_unit(std::size_t index, SpanRecorder* rec, Stats* stats,
                       Stats& counts) override {
    const ServoCase c = servo_case(seed_, index);
    SpanScope run(rec, "run", 0, index);
    std::unique_ptr<core::ServoSystem> servo;
    {
      SpanScope build(rec, "core.build", run.id(), index);
      servo = std::make_unique<core::ServoSystem>(c.config);
    }
    servo->motor_block().set_load(c.load());
    core::ServoSystem::MilResult r;
    {
      SpanScope mil(rec, "model.run", run.id(), index);
      r = servo->run_mil();
    }
    const bool ok = finite_run(r.iae, r.speed) && r.metrics.settled;
    counts["model.steps"] += static_cast<double>(r.speed.size());
    if (stats != nullptr) (*stats)["model.iae_sum"] += r.iae;
    return {1, ok ? 0u : 1u, c.config.duration_s, {}};
  }

  void layers(const SpanRecorder& rec, const Stats& counts, std::size_t,
              Stats& out) const override {
    out["model.ns_per_step"] = static_cast<double>(rec.total_ns("model.run")) /
                               counts.at("model.steps");
  }

 private:
  std::uint64_t seed_;
};

// mil_batch: the same seeded cases as width-8 lane groups through
// batch::run_servo_batch.
class MilBatchWorkload : public Workload {
 public:
  static constexpr std::size_t kWidth = 8;
  /// One lane in every kCheckEvery groups is compared bit for bit against
  /// scalar run_mil (the batch determinism contract), outside the clock.
  static constexpr std::size_t kCheckEvery = 16;

  explicit MilBatchWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanRecorder* rec) override {
    SpanScope root(rec, "setup", 0, 0);
    SpanScope build(rec, "core.build", root.id(), 0);
    const core::ServoConfig c = servo_case(seed_, 0).config;
    core::ServoSystem probe(c);
    config_ = batch::ServoBatchConfig{};
    config_.period_s = c.period_s;
    config_.duration_s = c.duration_s;
    config_.encoder_lines = c.encoder_lines;
    config_.speed_filter_taps = c.speed_filter_taps;
    config_.hw_fidelity = c.mil_hw_fidelity;
    // The PWM bean's solved counter modulo, for parity with run_mil.
    config_.pwm_modulo = probe.pwm_block().bean().properties().get_int("modulo");
  }

  std::size_t reference_units() const override { return 32; }

  UnitOutcome run_unit(std::size_t index, SpanRecorder* rec, Stats* stats,
                       Stats& counts) override {
    std::vector<batch::ServoLane> lanes(kWidth);
    for (std::size_t k = 0; k < kWidth; ++k) {
      const ServoCase c = servo_case(seed_, index * kWidth + k);
      lanes[k].setpoint = c.config.setpoint;
      lanes[k].setpoint_time = c.config.setpoint_time;
      lanes[k].kp = c.config.kp;
      lanes[k].ki = c.config.ki;
      lanes[k].motor = c.config.motor;
      lanes[k].load = c.load();
    }
    SpanScope group(rec, "group", 0, index);
    {
      SpanScope call(rec, "batch.group", group.id(), index);
      last_ = batch::run_servo_batch(config_, lanes);
    }
    UnitOutcome out;
    for (const batch::ServoLaneResult& r : last_) {
      const bool ok = !r.faulted && finite_run(r.iae, r.speed) &&
                      r.metrics.settled;
      ++out.attempted;
      out.failed += ok ? 0 : 1;
      out.sim_s += config_.duration_s;
      counts["batch.lane_steps"] += static_cast<double>(r.speed.size());
      if (stats != nullptr) (*stats)["batch.iae_sum"] += r.iae;
    }
    return out;
  }

  bool offline_check(std::size_t index) override {
    if (index % kCheckEvery != 0) return true;
    const std::size_t k = (index / kCheckEvery) % kWidth;
    const ServoCase c = servo_case(seed_, index * kWidth + k);
    core::ServoSystem servo(c.config);
    servo.motor_block().set_load(c.load());
    const auto scalar = servo.run_mil();
    const batch::ServoLaneResult& lane = last_.at(k);
    return same_bits(lane.speed, scalar.speed) &&
           same_bits(lane.duty, scalar.duty) &&
           std::bit_cast<std::uint64_t>(lane.iae) ==
               std::bit_cast<std::uint64_t>(scalar.iae) &&
           lane.metrics.settled == scalar.metrics.settled;
  }

  void layers(const SpanRecorder& rec, const Stats& counts, std::size_t,
              Stats& out) const override {
    out["batch.ns_per_lane_step"] =
        static_cast<double>(rec.total_ns("batch.group")) /
        counts.at("batch.lane_steps");
  }

 private:
  static bool same_bits(const model::SampleLog& a, const model::SampleLog& b) {
    return a.size() == b.size() &&
           std::memcmp(a.times().data(), b.times().data(),
                       a.size() * sizeof(double)) == 0 &&
           std::memcmp(a.values().data(), b.values().data(),
                       a.size() * sizeof(double)) == 0;
  }

  std::uint64_t seed_;
  batch::ServoBatchConfig config_;
  std::vector<batch::ServoLaneResult> last_;
};

// farm16: the 16-node CAN farm — 15 ServoNodes, a supervisor and chatter.
class FarmWorkload : public Workload {
 public:
  explicit FarmWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanRecorder* rec) override {
    SpanScope root(rec, "setup", 0, 0);
    SpanScope build(rec, "cosim.build", root.id(), 0);
    const cosim::FarmConfig cfg = farm_config(0);
    cosim::ServoFarm farm(cosim::make_farm_topology(cfg), options(cfg));
  }

  std::size_t reference_units() const override { return 3; }

  UnitOutcome run_unit(std::size_t index, SpanRecorder* rec, Stats* stats,
                       Stats& counts) override {
    const cosim::FarmConfig cfg = farm_config(index);
    SpanScope run(rec, "run", 0, index);
    std::unique_ptr<cosim::ServoFarm> farm;
    {
      SpanScope build(rec, "cosim.build", run.id(), index);
      farm = std::make_unique<cosim::ServoFarm>(cosim::make_farm_topology(cfg),
                                                options(cfg));
    }
    std::uint64_t negotiations = 0;
    if (rec != nullptr) negotiations = run_timed_master(*farm, cfg, *rec,
                                                        run.id(), index);
    // Untraced: the farm's own master does the run.  Traced: the timed
    // master already advanced every component to the horizon, so this
    // only folds the result.
    const cosim::FarmResult r = farm->run();
    if (rec == nullptr) negotiations = r.negotiations;

    bool ok = r.recovered && std::isfinite(r.mean_abs_error);
    for (const cosim::FarmNodeResult& n : r.nodes) {
      ok = ok && std::isfinite(n.speed);
    }
    counts["sim.events"] += static_cast<double>(r.events_executed);
    if (stats != nullptr) {
      (*stats)["cosim.negotiations"] += static_cast<double>(negotiations);
      (*stats)["sim.events"] += static_cast<double>(r.events_executed);
      (*stats)["can.frames_delivered"] +=
          static_cast<double>(r.frames_delivered);
      (*stats)["cosim.mean_abs_error"] += r.mean_abs_error;
    }
    return {1, ok ? 0u : 1u, cfg.duration_s, {}};
  }

  void finalize_stats(Stats& stats) const override {
    stats["cosim.mean_abs_error"] /= static_cast<double>(reference_units());
  }

  void layers(const SpanRecorder& rec, const Stats& counts, std::size_t units,
              Stats& out) const override {
    const double n = static_cast<double>(units);
    out["cosim.servo_ms"] = rec.total_ns("cosim.servo") * 1e-6 / n;
    out["cosim.supervisor_ms"] = rec.total_ns("cosim.supervisor") * 1e-6 / n;
    out["cosim.traffic_ms"] = rec.total_ns("cosim.traffic") * 1e-6 / n;
    out["cosim.master_self_ms"] =
        rec.total_self_ns("cosim.master") * 1e-6 / n;
    out["sim.host_ns_per_event"] =
        static_cast<double>(rec.total_ns("cosim.master")) /
        counts.at("sim.events");
  }

 private:
  /// Forwards to one farm component and sums the host time of its
  /// advance_to calls.
  class TimedComponent : public cosim::Component {
   public:
    TimedComponent(cosim::Component& inner, std::int64_t& ns,
                   std::uint64_t& calls)
        : inner_(inner), ns_(ns), calls_(calls) {}
    const std::string& name() const override { return inner_.name(); }
    sim::SimTime horizon() const override { return inner_.horizon(); }
    void advance_to(sim::SimTime t) override {
      const auto t0 = Clock::now();
      inner_.advance_to(t);
      ns_ += ns_between(t0, Clock::now());
      ++calls_;
    }
    std::uint64_t events_executed() const override {
      return inner_.events_executed();
    }

   private:
    cosim::Component& inner_;
    std::int64_t& ns_;
    std::uint64_t& calls_;
  };

  /// Composes a master over the farm's own components, each behind a
  /// timing wrapper, through the public add/add_coupling/run_until API.
  /// Bus advance and exchange remain in the master's self time.
  static std::uint64_t run_timed_master(cosim::ServoFarm& farm,
                                        const cosim::FarmConfig& cfg,
                                        SpanRecorder& rec,
                                        std::uint64_t parent,
                                        std::uint64_t run) {
    enum Kind { kServo, kSupervisor, kTraffic, kKinds };
    static const char* const kNames[kKinds] = {"cosim.servo", "cosim.supervisor",
                                               "cosim.traffic"};
    std::int64_t ns[kKinds] = {0, 0, 0};
    std::uint64_t calls[kKinds] = {0, 0, 0};

    cosim::Master master;
    for (cosim::SharedCanBus* bus : farm.master().couplings()) {
      master.add_coupling(*bus);
    }
    std::vector<std::unique_ptr<TimedComponent>> wrapped;
    for (cosim::Component* c : farm.master().components()) {
      Kind kind = kTraffic;
      if (dynamic_cast<cosim::ServoNode*>(c) != nullptr) {
        kind = kServo;
      } else if (dynamic_cast<cosim::SupervisorNode*>(c) != nullptr) {
        kind = kSupervisor;
      }
      wrapped.push_back(
          std::make_unique<TimedComponent>(*c, ns[kind], calls[kind]));
      master.add(*wrapped.back());
    }

    cosim::MasterStats stats;
    std::uint64_t master_id = 0;
    std::int64_t master_start = 0;
    {
      SpanScope span(&rec, "cosim.master", parent, run);
      master_id = span.id();
      master_start = rec.since_origin(Clock::now());
      stats = master.run_until(sim::from_seconds(cfg.duration_s));
    }
    for (int k = 0; k < kKinds; ++k) {
      Span s;
      s.id = rec.next_id();
      s.parent = master_id;
      s.name = kNames[k];
      s.run = run;
      s.start_ns = master_start;
      s.dur_ns = ns[k];
      s.calls = calls[k];
      rec.record(s);
    }
    return stats.negotiations;
  }

  cosim::FarmConfig farm_config(std::size_t index) const {
    auto rng = stream(seed_, index, 2);
    cosim::FarmConfig cfg;
    cfg.servo_count = 15;
    cfg.bitrate_bps = 500000;
    cfg.duration_s = 1.0;
    cfg.setpoint = rng.uniform(80.0, 120.0);
    cfg.traffic_frames_per_s = rng.uniform(250.0, 350.0);
    return cfg;
  }

  static cosim::ServoFarm::Options options(const cosim::FarmConfig& cfg) {
    cosim::ServoFarm::Options o;
    o.duration_s = cfg.duration_s;
    o.settle_tolerance = cfg.settle_tolerance;
    return o;
  }

  std::uint64_t seed_;
};

// pil_campaign: E11's PIL fault campaign through campaign::CampaignEngine
// with per-run evidence, checkpoint seals and a final verify_manifest.
class PilCampaignWorkload : public Workload {
 public:
  /// Campaign size and seal interval are campaign_ctl's defaults: 512 runs,
  /// a checkpoint every 64 (seven seals; none at the end).
  static constexpr std::size_t kRuns = 512;
  static constexpr std::size_t kCheckpointEvery = 64;
  /// One worker: at two, the workers contend for the cores a shared host
  /// grants, and the p99 scenario CPU time spread 35 % from run to run.
  static constexpr std::size_t kWorkers = 1;
  static constexpr double kDuration = 0.5;

  PilCampaignWorkload(std::uint64_t seed, std::filesystem::path work_dir)
      : seed_(seed), dir_(std::move(work_dir) / "evidence") {}
  ~PilCampaignWorkload() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  PilCampaignWorkload(const PilCampaignWorkload&) = delete;
  PilCampaignWorkload& operator=(const PilCampaignWorkload&) = delete;

  /// The evidence directory is emptied outside the timed set-up: on the
  /// development VM's shared ext4 disk these two metadata calls took 0.3 to
  /// 0.9 ms, more than the rest of the set-up and set by the disk, not by
  /// the code.
  void prepare(SpanRecorder* rec) override {
    SpanScope prep(rec, "evidence.prepare", 0, 0);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void setup(SpanRecorder* rec) override {
    SpanScope root(rec, "setup", 0, 0);
    {
      SpanScope build(rec, "core.build", root.id(), 0);
      core::ServoSystem servo(pil_config(0));
      if (servo.validate().has_errors()) std::abort();
    }
    SpanScope engine_span(rec, "campaign.build", root.id(), 0);
    campaign::CampaignEngine engine(engine_options(0));
  }

  std::size_t reference_units() const override { return 1; }

  UnitOutcome run_unit(std::size_t index, SpanRecorder* rec, Stats* stats,
                       Stats& counts) override {
    const auto wall0 = Clock::now();
    const std::int64_t cpu0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    struct Slot {
      double call_ms = 0.0;      ///< wall, for the campaign's busy share
      double call_cpu_ms = 0.0;  ///< the worker thread's CPU time
      double exchanges = 0.0;
      double events = 0.0;
    };
    std::vector<Slot> slots(kRuns);

    SpanScope camp(rec, "campaign", 0, index);
    campaign::EngineResult er;
    std::int64_t run_ns = 0;
    {
      SpanScope run_span(rec, "campaign.run", camp.id(), index);
      const std::uint64_t parent = run_span.id();
      const fault::CampaignScenario scenario = [&](fault::RunContext& ctx) {
        Slot& slot = slots[ctx.index];
        const auto t0 = Clock::now();
        const std::int64_t cpu0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
        const std::uint64_t run_id = index * kRuns + ctx.index;
        SpanScope call(rec, "campaign.scenario", parent, run_id);
        const bool recovered = pil_scenario(ctx, rec, call.id(), run_id,
                                            slot.exchanges, slot.events);
        slot.call_ms = static_cast<double>(ns_between(t0, Clock::now())) * 1e-6;
        slot.call_cpu_ms =
            static_cast<double>(cpu_ns(CLOCK_THREAD_CPUTIME_ID) - cpu0) * 1e-6;
        return recovered;
      };
      const auto t0 = Clock::now();
      er = campaign::CampaignEngine(engine_options(index)).run(scenario);
      run_ns = ns_between(t0, Clock::now());
    }
    evidence::ManifestVerifyResult verified;
    {
      SpanScope verify(rec, "evidence.verify", camp.id(), index);
      verified = evidence::verify_manifest(er.evidence.manifest_path);
    }
    const bool evidence_ok = verified.ok && verified.passed == kRuns + 1 &&
                             verified.entries.size() == kRuns + 1;
    const std::int64_t cpu1 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    const double unit_cpu_ms = static_cast<double>(cpu1 - cpu0) * 1e-6;
    const double unit_wall_ms =
        static_cast<double>(ns_between(wall0, Clock::now())) * 1e-6;

    UnitOutcome out;
    out.attempted = kRuns;
    out.failed = evidence_ok ? er.report.unrecovered : kRuns;
    out.sim_s = kRuns * kDuration;
    double scenario_ms = 0.0;
    double scenario_cpu_ms = 0.0;
    double exchanges = 0.0;
    double events = 0.0;
    for (const Slot& s : slots) {
      out.call_ms.push_back(s.call_cpu_ms);
      scenario_ms += s.call_ms;
      scenario_cpu_ms += s.call_cpu_ms;
      exchanges += s.exchanges;
      events += s.events;
    }
    counts["campaign.runs"] += kRuns;
    counts["campaign.unit_cpu_ms"] += unit_cpu_ms;
    counts["campaign.unit_wall_ms"] += unit_wall_ms;
    counts["campaign.scenario_cpu_ms"] += scenario_cpu_ms;
    double bytes = static_cast<double>(er.evidence.merged.bytes);
    for (const evidence::RunArtifact& a : er.evidence.runs) {
      bytes += static_cast<double>(a.bytes);
    }
    const double wall_ms = static_cast<double>(run_ns) * 1e-6;
    counts["campaign.scenario_ms"] += scenario_ms;
    counts["campaign.capacity_ms"] += wall_ms * kWorkers;
    counts["campaign.steals"] += static_cast<double>(er.sched.steals);
    counts["campaign.window_waits"] +=
        static_cast<double>(er.sched.window_waits);
    counts["campaign.peak_pending_groups"] =
        std::max(counts["campaign.peak_pending_groups"],
                 static_cast<double>(er.sched.peak_pending_groups));
    counts["campaign.checkpoints"] +=
        static_cast<double>(er.checkpoints_sealed);
    counts["evidence.bytes"] += bytes;
    counts["pil.exchanges"] += exchanges;
    counts["sim.events"] += events;
    if (stats != nullptr) {
      (*stats)["pil.exchanges"] += counter(er.report, "pil.exchanges");
      (*stats)["pil.retransmits"] += counter(er.report, "pil.retransmits");
      const auto* rtt = er.report.merged.find_series("pil.round_trip_us");
      (*stats)["pil.rtt_us_p50"] += rtt ? rtt->percentile(50.0) : 0.0;
      (*stats)["fault.injected"] +=
          static_cast<double>(er.report.faults_injected);
      (*stats)["fault.opportunities"] +=
          static_cast<double>(er.report.fault_opportunities);
      (*stats)["sim.events"] += events;
    }
    return out;
  }

  void finalize_stats(Stats& stats) const override {
    stats["pil.rtt_us_p50"] /= static_cast<double>(reference_units());
  }

  void trace_probes(SpanRecorder& rec) override {
    // codegen: one PeertTarget::build_pil call on the case-study
    // controller — the call run_pil makes first — timed on its own.
    SpanScope root(&rec, "probe", 0, 0);
    for (std::uint64_t k = 0; k < 10; ++k) {
      core::ServoSystem servo(pil_config(k));
      core::PeertTarget target;
      codegen::SignalBuffer buffer;
      SpanScope span(&rec, "codegen.build_pil", root.id(), k);
      if (!target.build_pil(servo.controller(), servo.project(), buffer)
               .ok()) {
        std::abort();
      }
    }
  }

  void layers(const SpanRecorder& rec, const Stats& counts, std::size_t units,
              Stats& out) const override {
    const double n = static_cast<double>(units);
    const double scenario_ms = counts.at("campaign.scenario_ms");
    const double capacity_ms = counts.at("campaign.capacity_ms");
    out["campaign.busy_share"] = scenario_ms / capacity_ms;
    out["campaign.engine_ms"] = (capacity_ms - scenario_ms) / n;
    // What runs_per_s pays besides the scenario calls: engine, fold,
    // evidence writes, checkpoint seals and verify_manifest.
    const double unit_cpu_ms = counts.at("campaign.unit_cpu_ms");
    out["campaign.overhead_share"] =
        (unit_cpu_ms - counts.at("campaign.scenario_cpu_ms")) / unit_cpu_ms;
    // Wall clock, which the CPU-time end-to-end metrics do not see: time a
    // campaign spends waiting (I/O, locks, sleeping threads) shows here.
    out["campaign.wall_runs_per_s"] =
        counts.at("campaign.runs") / (counts.at("campaign.unit_wall_ms") * 1e-3);
    out["campaign.steals"] = counts.at("campaign.steals") / n;
    out["campaign.window_waits"] = counts.at("campaign.window_waits") / n;
    out["campaign.peak_pending_groups"] =
        counts.at("campaign.peak_pending_groups");
    out["campaign.checkpoints"] = counts.at("campaign.checkpoints") / n;
    out["evidence.bytes"] = counts.at("evidence.bytes") / n;
    const double verify_ns = static_cast<double>(rec.total_ns("evidence.verify"));
    out["evidence.verify_mb_per_s"] =
        counts.at("evidence.bytes") / 1e6 / (verify_ns * 1e-9);
    const double pil_ns = static_cast<double>(rec.total_ns("pil.run"));
    out["pil.host_us_per_exchange"] = pil_ns * 1e-3 / counts.at("pil.exchanges");
    out["sim.host_ns_per_event"] = pil_ns / counts.at("sim.events");
  }

 private:
  core::ServoConfig pil_config(std::uint64_t run_seed) const {
    auto rng = stream(seed_, run_seed, 3);
    core::ServoConfig cfg;
    cfg.duration_s = kDuration;
    cfg.setpoint_time = 0.02;
    cfg.setpoint = rng.uniform(80.0, 120.0);
    return cfg;
  }

  campaign::EngineOptions engine_options(std::size_t index) const {
    campaign::EngineOptions eo;
    eo.campaign.name = "perfbench_pil";
    eo.campaign.seed = stream(seed_, index, 4).next();
    eo.campaign.runs = kRuns;
    eo.campaign.threads = kWorkers;
    eo.campaign.plan = fault::FaultPlan::defaults();
    eo.evidence_dir = dir_.string();
    eo.checkpoint_every = kCheckpointEvery;
    eo.resume = false;
    return eo;
  }

  /// E11's PIL scenario: 1 Mbaud (the round trip must fit inside the
  /// period for retransmission to work), recovery on, every fault layer
  /// wired, a MonitorHub attached.
  bool pil_scenario(fault::RunContext& ctx, SpanRecorder* rec,
                    std::uint64_t parent, std::uint64_t run,
                    double& exchanges, double& events) const {
    std::unique_ptr<core::ServoSystem> servo;
    {
      SpanScope build(rec, "core.build", parent, run);
      servo = std::make_unique<core::ServoSystem>(pil_config(ctx.run_seed));
    }
    obs::MonitorHub hub;
    core::ServoSystem::PilRunOptions opts;
    opts.baud = 1000000;
    opts.faults = &ctx.injector;
    opts.monitors = &hub;
    opts.recovery.enabled = true;
    core::ServoSystem::PilResult result;
    {
      SpanScope pil(rec, "pil.run", parent, run);
      result = servo->run_pil(opts);
    }
    ctx.metrics.merge(result.report.metrics);
    ctx.metrics.stats("campaign.iae").add(result.iae);
    ctx.metrics.counter("campaign.settled").value +=
        result.metrics.settled ? 1 : 0;
    {
      SpanScope report(rec, "obs.report", parent, run);
      ctx.health.merge(hub.report("pil"));
    }
    exchanges = static_cast<double>(result.report.exchanges);
    const double* per_exchange =
        result.report.metrics.find_gauge("pil.events_per_exchange");
    events = per_exchange ? std::round(*per_exchange * exchanges) : 0.0;
    const auto* abandoned =
        result.report.metrics.find_counter("pil.exchanges_abandoned");
    return (abandoned == nullptr || abandoned->value == 0) &&
           finite_run(result.iae, result.speed);
  }

  static double counter(const fault::CampaignReport& report,
                        const std::string& name) {
    const auto* c = report.merged.find_counter(name);
    return c ? static_cast<double>(c->value) : 0.0;
  }

  std::uint64_t seed_;
  std::filesystem::path dir_;
};

// ---------------------------------------------------------------- driver

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_once = false;
  std::string work_dir = ".";
};

/// One cold set-up: a fresh perfbench process for the same workload and
/// seed runs the workload's set-up once, first thing in main, and reports
/// its CPU time (run_setup_once).  Returns seconds, or -1 on failure.
double cold_setup_s(const Args& args) {
  std::error_code ec;
  const std::string exe =
      std::filesystem::read_symlink("/proc/self/exe", ec).string();
  if (ec) return -1.0;
  std::vector<std::string> words = {
      exe,         "--workload",   args.workload,
      "--seed",    std::to_string(args.seed),
      "--work-dir", (std::filesystem::path(args.work_dir) / "setup").string(),
      "--setup-once", "1"};
  std::vector<char*> argv;
  for (std::string& word : words) argv.push_back(word.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  if (spawned != 0) return -1.0;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1.0;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1.0;
  char* end = nullptr;
  const double s = std::strtod(out.c_str(), &end);
  return end != out.c_str() && s > 0.0 ? s : -1.0;
}

/// End-to-end timings of one phase, in CPU time (see cpu_ns).  Every figure
/// pools the whole run: throughput is all runs over all measured CPU time,
/// the median and the tail are taken over every sample, and set-up is the
/// median of cold set-ups spread over the run.  Other tenants of a shared
/// host slow stretches of a run through the caches they share; a figure
/// taken from one stretch (the fastest window, say) moves with the
/// stretches a run happens to catch, whereas the whole-run figures average
/// over them.
struct Timings {
  double runs_per_s = 0.0;
  double sim_s_per_host_s = 0.0;
  double run_ms_p50 = 0.0;
  double setup_s = 0.0;
  std::size_t setups = 0;
  Tail tail;
  std::size_t samples = 0;
};

class PhaseTimer {
 public:
  /// Sample slots allocated and touched up front, so that the benchmark's
  /// own resident memory does not grow with the speed of the code it
  /// measures (peak_rss_mb).  A 25 s run of today's code fills under a
  /// tenth of them.
  static constexpr std::size_t kSampleCapacity = std::size_t{1} << 18;

  PhaseTimer() {
    samples_.resize(kSampleCapacity);
    samples_.clear();
  }

  void add_unit(std::int64_t ns, std::uint64_t runs, double sim_s,
                const std::vector<double>& samples_ms) {
    ns_ += static_cast<double>(ns);
    runs_ += static_cast<double>(runs);
    sim_s_ += sim_s;
    samples_.insert(samples_.end(), samples_ms.begin(), samples_ms.end());
  }

  void add_setup(double setup_s) { setups_.push_back(setup_s); }

  Timings finish() const {
    Timings t;
    t.runs_per_s = runs_ / (ns_ * 1e-9);
    t.sim_s_per_host_s = sim_s_ / (ns_ * 1e-9);
    t.run_ms_p50 = median(samples_);
    t.tail = tail_of(samples_);
    t.samples = samples_.size();
    t.setup_s = median(setups_);
    t.setups = setups_.size();
    return t;
  }

 private:
  double ns_ = 0.0;
  double runs_ = 0.0;
  double sim_s_ = 0.0;
  std::vector<double> samples_;  ///< every sample
  std::vector<double> setups_;
};

struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t units = 0;
  Timings timings;
  Stats stats;   ///< simulated statistics of the reference units
  Stats counts;  ///< host-side work counts of every unit
  bool checks_ok = true;
};

constexpr int kSetupBursts = 10;
constexpr int kSetupsPerBurst = 3;

/// Closed loop: the next unit starts when the previous one finished.  The
/// clock pauses for offline checks and, when \p cold is set, for the timed
/// set-ups: kSetupsPerBurst cold set-ups at the start and after every
/// further tenth of the run, kSetupBursts bursts in all, so that their
/// median samples the whole run rather than one moment of it.  The phase's
/// own set-up runs once, untimed.
Phase run_phase(Workload& w, double seconds, SpanRecorder* rec,
                const Args* cold) {
  Phase ph;
  PhaseTimer timer;
  const auto start = Clock::now();
  std::int64_t paused_ns = 0;
  int bursts = 0;
  auto setup_burst = [&] {
    const auto b0 = Clock::now();
    for (int k = 0; k < kSetupsPerBurst; ++k) {
      const double s = cold_setup_s(*cold);
      if (s < 0.0) ph.checks_ok = false;
      timer.add_setup(s);
    }
    ++bursts;
    paused_ns += ns_between(b0, Clock::now());
  };
  if (cold != nullptr) setup_burst();
  {
    const auto s0 = Clock::now();
    w.prepare(rec);
    w.setup(rec);
    paused_ns += ns_between(s0, Clock::now());
  }
  std::vector<double> unit_sample(1);
  for (std::size_t i = 0;; ++i) {
    const double elapsed =
        static_cast<double>(ns_between(start, Clock::now()) - paused_ns) *
        1e-9;
    if (i >= w.reference_units() && elapsed >= seconds) break;
    if (cold != nullptr && bursts < kSetupBursts &&
        elapsed * kSetupBursts >= seconds * bursts) {
      setup_burst();
    }
    Stats* stats = i < w.reference_units() ? &ph.stats : nullptr;
    const std::int64_t cpu0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    const UnitOutcome o = w.run_unit(i, rec, stats, ph.counts);
    const std::int64_t unit_ns = cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    unit_sample[0] = static_cast<double>(unit_ns) * 1e-6;
    timer.add_unit(unit_ns, o.attempted, o.sim_s,
                   o.call_ms.empty() ? unit_sample : o.call_ms);
    ph.attempted += o.attempted;
    ph.failed += o.failed;
    ++ph.units;
    const auto c0 = Clock::now();
    if (!w.offline_check(i)) ph.checks_ok = false;
    paused_ns += ns_between(c0, Clock::now());
  }
  while (cold != nullptr && bursts < kSetupBursts) setup_burst();
  ph.timings = timer.finish();
  w.finalize_stats(ph.stats);
  return ph;
}

struct Metric {
  const char* name;
  const char* unit;
};

// run_ms_p50 is not among them: on a host that switches between a fast and
// a slow state for seconds at a time, the median run lies in whichever
// state held more than half of the run, and it spread 26 to 61 % over ten
// runs of the same code.  It is a per-layer metric instead.
constexpr Metric kEndToEnd[] = {
    {"runs_per_s", "1/s"}, {"sim_s_per_host_s", "s/s"},
    {"run_ms_tail", "ms"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every per-layer metric, printed on every workload; a layer the workload
// does not exercise reads 0.
constexpr Metric kPerLayer[] = {
    {"core.build_ms", "ms"},
    {"model.run_ms", "ms"},
    {"model.ns_per_step", "ns"},
    {"batch.group_ms", "ms"},
    {"batch.ns_per_lane_step", "ns"},
    {"codegen.build_pil_ms", "ms"},
    {"pil.run_ms", "ms"},
    {"pil.host_us_per_exchange", "us"},
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"cosim.build_ms", "ms"},
    {"cosim.servo_ms", "ms"},
    {"cosim.supervisor_ms", "ms"},
    {"cosim.traffic_ms", "ms"},
    {"cosim.master_self_ms", "ms"},
    {"obs.report_ms", "ms"},
    {"campaign.busy_share", "ratio"},
    {"campaign.engine_ms", "ms"},
    {"campaign.steals", "count"},
    {"campaign.window_waits", "count"},
    {"campaign.peak_pending_groups", "count"},
    {"campaign.checkpoints", "count"},
    {"campaign.overhead_share", "ratio"},
    {"campaign.wall_runs_per_s", "1/s"},
    {"evidence.bytes", "bytes"},
    {"evidence.verify_ms", "ms"},
    {"evidence.verify_mb_per_s", "MB/s"},
    {"model.iae_sum", "rad"},
    {"batch.iae_sum", "rad"},
    {"cosim.negotiations", "count"},
    {"cosim.mean_abs_error", "rad/s"},
    {"can.frames_delivered", "count"},
    {"pil.exchanges", "count"},
    {"pil.retransmits", "count"},
    {"pil.rtt_us_p50", "us"},
    {"fault.injected", "count"},
    {"fault.opportunities", "count"},
    {"host.spin_mops", "Mops/s"},
    {"host.spin_mops_after", "Mops/s"},
    {"host.par2_eff", "ratio"},
    {"host.par2_eff_after", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"failed_share", "ratio"},
    {"run_ms_p50", "ms"},
};

// Simulated statistics: repeat exactly for a seed, and are identical
// between the traced and untraced phases.
constexpr const char* kSimulated[] = {
    "model.iae_sum",       "batch.iae_sum",        "cosim.negotiations",
    "cosim.mean_abs_error", "can.frames_delivered", "pil.exchanges",
    "pil.retransmits",     "pil.rtt_us_p50",       "fault.injected",
    "fault.opportunities", "sim.events",
};

// Spans whose median duration is a per-layer metric.
constexpr std::pair<const char*, const char*> kSpanMedians[] = {
    {"core.build", "core.build_ms"},
    {"model.run", "model.run_ms"},
    {"batch.group", "batch.group_ms"},
    {"codegen.build_pil", "codegen.build_pil_ms"},
    {"pil.run", "pil.run_ms"},
    {"cosim.build", "cosim.build_ms"},
    {"obs.report", "obs.report_ms"},
    {"evidence.verify", "evidence.verify_ms"},
};

bool same_stats(const Stats& a, const Stats& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, value] : a) {
    auto it = b.find(name);
    if (it == b.end() || std::bit_cast<std::uint64_t>(it->second) !=
                             std::bit_cast<std::uint64_t>(value)) {
      return false;
    }
  }
  return true;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Stats& values, const Metric* metrics, std::size_t n) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t k = 0; k < n; ++k) {
    double v = values.count(metrics[k].name) ? values.at(metrics[k].name) : 0;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k ? ", " : "", metrics[k].name, v, metrics[k].unit);
  }
  std::printf("}}\n");
}

void print_table(const Stats& values, const Metric* metrics, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double v =
        values.count(metrics[k].name) ? values.at(metrics[k].name) : 0.0;
    std::printf("  %-30s %16.6g %s\n", metrics[k].name, v, metrics[k].unit);
  }
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (key == "--setup-once") {
      args.setup_once = std::strcmp(value, "1") == 0;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "mil") return std::make_unique<MilWorkload>(args.seed);
  if (args.workload == "mil_batch") {
    return std::make_unique<MilBatchWorkload>(args.seed);
  }
  if (args.workload == "farm16") {
    return std::make_unique<FarmWorkload>(args.seed);
  }
  if (args.workload == "pil_campaign") {
    return std::make_unique<PilCampaignWorkload>(
        args.seed, std::filesystem::path(args.work_dir));
  }
  return nullptr;
}

/// The child side of cold_setup_s: the workload's set-up, once, as the
/// first library work of a fresh process; prints its CPU time [s].
int run_setup_once(Workload& w) {
  w.prepare(nullptr);
  const std::int64_t cpu0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  w.setup(nullptr);
  const std::int64_t cpu1 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  std::printf("%.17g\n", static_cast<double>(cpu1 - cpu0) * 1e-9);
  return 0;
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.setup_once) return run_setup_once(*w);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  SpanRecorder rec;
  SpanRecorder* traced = args.trace ? &rec : nullptr;
  const HostCalibration before = calibrate();

  // Only the untraced run reports setup_s, so only it times cold set-ups.
  Phase plain = run_phase(*w, args.trace ? args.seconds / 2 : args.seconds,
                          nullptr, args.trace ? nullptr : &args);
  Phase trace_phase;
  if (args.trace) {
    trace_phase = run_phase(*w, args.seconds / 2, traced, nullptr);
    w->trace_probes(rec);
  }
  const HostCalibration after = calibrate();
  const Phase& main_phase = args.trace ? trace_phase : plain;

  bool correct = main_phase.failed == 0 && main_phase.checks_ok;
  if (args.trace && !same_stats(plain.stats, trace_phase.stats)) {
    std::printf("traced run's simulated statistics differ from the untraced "
                "run's\n");
    correct = false;
  }
  const double failed_share = static_cast<double>(main_phase.failed) /
                              static_cast<double>(main_phase.attempted);
  const Tail& tail = main_phase.timings.tail;
  if (!args.trace && !tail.enough) {
    std::printf("run_ms_tail: fewer than ten of %zu samples beyond p%g\n",
                main_phase.timings.samples, kTailPct);
    correct = false;
  }
  std::printf("host before: spin_mops=%.1f par2_eff=%.3f; after: "
              "spin_mops=%.1f par2_eff=%.3f\n",
              before.spin_mops, before.par2_eff, after.spin_mops,
              after.par2_eff);
  std::printf("units=%zu runs=%llu failed=%llu failed_share=%g "
              "run_ms_tail=p%g of %zu samples setup_s=median of %zu cold\n",
              main_phase.units,
              static_cast<unsigned long long>(main_phase.attempted),
              static_cast<unsigned long long>(main_phase.failed), failed_share,
              kTailPct, main_phase.timings.samples,
              main_phase.timings.setups);
  for (const auto& [name, value] : main_phase.stats) {
    std::printf("  stat %-26s %.17g\n", name.c_str(), value);
  }

  if (!args.trace) {
    const Timings& t = plain.timings;
    Stats e2e;
    e2e["runs_per_s"] = t.runs_per_s;
    e2e["sim_s_per_host_s"] = t.sim_s_per_host_s;
    e2e["run_ms_tail"] = tail.value;
    e2e["setup_s"] = t.setup_s;
    e2e["peak_rss_mb"] = peak_rss_mb();
    print_table(e2e, kEndToEnd, std::size(kEndToEnd));
    std::printf("  %-30s %16.6g %s\n", "failed_share", failed_share, "ratio");
    std::printf("  %-30s %16.6g %s\n", "run_ms_p50", t.run_ms_p50, "ms");
    print_json(correct, plain.attempted, plain.failed, e2e, kEndToEnd,
               std::size(kEndToEnd));
    return 0;
  }

  Stats layers;
  for (const Metric& m : kPerLayer) layers[m.name] = 0.0;
  for (const auto& [span, metric] : kSpanMedians) {
    layers[metric] = median(rec.durations_ms(span));
  }
  w->layers(rec, trace_phase.counts, trace_phase.units, layers);
  for (const char* name : kSimulated) {
    auto it = trace_phase.stats.find(name);
    if (it != trace_phase.stats.end()) layers[name] = it->second;
  }
  layers["host.spin_mops"] = before.spin_mops;
  layers["host.spin_mops_after"] = after.spin_mops;
  layers["host.par2_eff"] = before.par2_eff;
  layers["host.par2_eff_after"] = after.par2_eff;
  layers["trace.overhead_ratio"] =
      plain.timings.runs_per_s / trace_phase.timings.runs_per_s;
  layers["failed_share"] = failed_share;
  layers["run_ms_p50"] = plain.timings.run_ms_p50;  // untraced half

  const std::filesystem::path spans_path =
      std::filesystem::path(args.work_dir) /
      ("spans-" + args.workload + "-" + std::to_string(args.seed) + ".jsonl");
  if (!rec.write_jsonl(spans_path.string())) correct = false;
  std::printf("spans: %zu written to %s\n", rec.spans().size(),
              spans_path.c_str());
  print_table(layers, kPerLayer, std::size(kPerLayer));
  print_json(correct, trace_phase.attempted, trace_phase.failed, layers,
             kPerLayer, std::size(kPerLayer));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <mil|mil_batch|farm16|"
                 "pil_campaign> --seed N --seconds S --trace <0|1> "
                 "[--work-dir DIR] [--setup-once 1]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  return perfbench::run(args);
}
