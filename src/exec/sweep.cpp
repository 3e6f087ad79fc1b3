#include "exec/sweep.hpp"

#include <algorithm>
#include <utility>

namespace iecd::exec {

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

SweepRunner::Result SweepRunner::fan_out(
    std::size_t runs, bool with_health,
    const campaign::StreamRunner::GroupFn& group) const {
  Result result;
  result.runs = runs;
  result.per_run.resize(runs);
  if (with_health) {
    result.per_run_health.resize(runs);
    // Result::health counts folded sweep points, not the default single run.
    result.health.runs = 0;
  }
  campaign::StreamOptions so;
  so.threads = options_.threads;
  so.batch = std::max<std::size_t>(1, options_.batch);
  // The StreamRunner calls the sink strictly in run-index order
  // (serialized), so the merged registry/health are byte-identical for any
  // thread count, batch width and steal schedule.  The group buffers move
  // into the preallocated per-run slots instead of being copied.
  result.sched = campaign::StreamRunner(so).run(
      runs, group, [&result, with_health](campaign::GroupResult& g) {
        for (std::size_t k = 0; k < g.metrics.size(); ++k) {
          const std::size_t index = g.first + k;
          result.merged.merge(g.metrics[k]);
          result.per_run[index] = std::move(g.metrics[k]);
          if (with_health) {
            result.health.merge(g.health[k]);
            result.per_run_health[index] = std::move(g.health[k]);
          }
        }
      });
  result.threads_used = result.sched.threads_used;
  result.wall_ms = result.sched.wall_ms;
  return result;
}

SweepRunner::Result SweepRunner::run(std::size_t runs,
                                     const Scenario& scenario) const {
  return fan_out(runs, /*with_health=*/false,
                 [&scenario](std::size_t first,
                             std::span<trace::MetricsRegistry> metrics,
                             std::span<obs::HealthReport> /*health*/) {
                   for (std::size_t k = 0; k < metrics.size(); ++k) {
                     scenario(first + k, metrics[k]);
                   }
                 });
}

SweepRunner::Result SweepRunner::run(std::size_t runs,
                                     const HealthScenario& scenario) const {
  return fan_out(runs, /*with_health=*/true,
                 [&scenario](std::size_t first,
                             std::span<trace::MetricsRegistry> metrics,
                             std::span<obs::HealthReport> health) {
                   for (std::size_t k = 0; k < metrics.size(); ++k) {
                     scenario(first + k, metrics[k], health[k]);
                   }
                 });
}

SweepRunner::Result SweepRunner::run(std::size_t runs,
                                     const BatchScenario& scenario) const {
  return fan_out(runs, /*with_health=*/false,
                 [&scenario](std::size_t first,
                             std::span<trace::MetricsRegistry> metrics,
                             std::span<obs::HealthReport> /*health*/) {
                   scenario(first, metrics);
                 });
}

SweepRunner::Result SweepRunner::run(
    std::size_t runs, const BatchHealthScenario& scenario) const {
  return fan_out(runs, /*with_health=*/true, scenario);
}

}  // namespace iecd::exec
