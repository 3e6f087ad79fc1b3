// Sweep tour: tune the quickstart PI speed loop by brute force — a
// 64-point gain/load sweep (8 proportional gains x 8 load torques) fanned
// out across the host cores with exec::SweepRunner.
//
// Each sweep point builds its own model and engine (no shared state),
// records its closed-loop quality into the per-run MetricsRegistry, and the
// runner folds all 64 registries together in index order — so the merged
// report below is byte-identical no matter how many threads execute it.
#include <cstdio>

#include "blocks/discrete.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/sinks.hpp"
#include "blocks/sources.hpp"
#include "exec/sweep.hpp"
#include "model/engine.hpp"
#include "model/metrics.hpp"
#include "plant/dc_motor.hpp"

using namespace iecd;

namespace {

constexpr int kGainPoints = 8;
constexpr int kLoadPoints = 8;

double gain_at(int i) { return 0.001 + 0.001 * i; }           // kp
double load_at(int j) { return 0.002 * j; }                   // N*m

/// One sweep point: MIL run of the PI speed loop with (kp, load torque)
/// taken from the sweep index.  Returns the settling time through metrics.
void sweep_point(std::size_t index, trace::MetricsRegistry& metrics) {
  const int gi = static_cast<int>(index) % kGainPoints;
  const int lj = static_cast<int>(index) / kGainPoints;

  model::Model loop("sweep_point");
  auto& reference = loop.add<blocks::StepBlock>("reference", 0.05, 0.0, 100.0);
  auto& error = loop.add<blocks::SumBlock>("error", "+-");
  blocks::DiscretePidBlock::Gains gains;
  gains.kp = gain_at(gi);
  gains.ki = 0.12;
  auto& pi = loop.add<blocks::DiscretePidBlock>("pi", gains, 0.0, 1.0);
  pi.set_sample_time(model::SampleTime::discrete(0.001));

  plant::DcMotorParams motor_params;
  auto& drive =
      loop.add<blocks::GainBlock>("drive", motor_params.supply_voltage);
  drive.set_sample_time(model::SampleTime::continuous());
  auto& motor = loop.add<plant::DcMotorBlock>("motor", motor_params);
  const double load = load_at(lj);
  motor.set_load([load](double, double) { return load; });
  auto& scope = loop.add<blocks::ScopeBlock>("speed");
  scope.set_sample_time(model::SampleTime::discrete(0.001));

  loop.connect(reference, 0, error, 0);
  loop.connect(motor, 0, error, 1);
  loop.connect(error, 0, pi, 0);
  loop.connect(pi, 0, drive, 0);
  loop.connect(drive, 0, motor, 0);
  loop.connect(motor, 0, scope, 0);

  model::Engine engine(loop, {.stop_time = 0.5});
  engine.run();

  const auto quality = model::analyze_step(scope.log(), 100.0, 0.05);
  metrics.counter("sweep.runs").increment();
  if (quality.settled) {
    metrics.counter("sweep.settled").increment();
    metrics.stats("sweep.settling_ms").add(quality.settling_time * 1e3);
  }
  metrics.stats("sweep.overshoot_pct").add(quality.overshoot_percent);
  metrics.series("sweep.steady_error").record(quality.steady_state_error);
}

}  // namespace

int main() {
  const std::size_t runs = kGainPoints * kLoadPoints;

  exec::SweepRunner runner;  // threads = hardware_concurrency
  const auto result = runner.run(runs, sweep_point);

  std::printf("gain/load sweep: %zu points on %zu thread(s), %.1f ms wall\n\n",
              result.runs, result.threads_used, result.wall_ms);
  std::printf("%s\n", result.merged.report().c_str());

  // Best settling time across the grid, read back from the per-run results.
  double best_ms = 1e300;
  std::size_t best_index = 0;
  for (std::size_t i = 0; i < result.per_run.size(); ++i) {
    const auto* st = result.per_run[i].find_stats("sweep.settling_ms");
    if (st && st->count() > 0 && st->mean() < best_ms) {
      best_ms = st->mean();
      best_index = i;
    }
  }
  if (best_ms < 1e300) {
    std::printf("best point: kp=%.3f load=%.3f N*m -> settles in %.1f ms\n",
                gain_at(static_cast<int>(best_index) % kGainPoints),
                load_at(static_cast<int>(best_index) / kGainPoints), best_ms);
  }

  const auto* settled = result.merged.find_counter("sweep.settled");
  return (settled && settled->value > 0) ? 0 : 1;
}
