/// \file stream.hpp
/// StreamRunner: the campaign execution core — a work-stealing scheduler
/// over lane groups feeding a windowed index-order fold (fold.hpp).
///
/// Scheduling: the groups are cut into contiguous chunks and dealt to
/// per-worker deques.  An owner always claims from the FRONT of its deque
/// (its lowest run indices — the invariant the reorder window's
/// deadlock-freedom proof rests on); an idle worker steals the BACK half
/// of a victim's deque (the work its owner would reach last).  Because
/// results flow through the ReorderFold, the sink sees groups in strict
/// run-index order regardless of which worker ran what, so the merged
/// output is byte-identical for any thread count, chunk size, steal
/// schedule and window — the repo-wide determinism contract.
///
/// Placement: kCyclic (default) deals chunks round-robin, so every
/// worker's front sits near the watermark and a bounded reorder window
/// throttles without stalling — this is what makes O(window) streaming
/// memory possible.  kContiguous is the classic static tiling (worker w
/// owns one solid block); it is kept as the measured baseline — with a
/// bounded window it would stall every worker but the first, so its auto
/// window is unbounded (O(runs) buffering, the old behaviour).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "campaign/fold.hpp"
#include "obs/progress.hpp"

namespace iecd::campaign {

enum class Placement {
  kCyclic,      ///< chunks dealt round-robin (streaming-friendly)
  kContiguous,  ///< one solid block per worker (static-tiling baseline)
};

struct StreamOptions {
  /// Worker threads; 0 selects hardware_concurrency.  1 executes groups
  /// inline in index order (the sequential reference execution).
  std::size_t threads = 0;
  /// Lane-group width: each work item covers up to `batch` consecutive
  /// run indices (1 = scalar tiling; 0 runs as 1, and a width above the
  /// run count as one group of every run).
  std::size_t batch = 1;
  /// Reorder window in RUNS: a group may start only once the fold is
  /// within `window` runs of it, bounding buffered state to O(window).
  /// 0 = auto — cyclic placement picks max(2 * threads * chunk * batch,
  /// 64) so every worker's initial front is eligible; contiguous
  /// placement gets an effectively unbounded window (see file comment).
  std::size_t window = 0;
  /// Groups per placement chunk (the steal granule); 0 = auto (4).
  std::size_t chunk = 0;
  Placement placement = Placement::kCyclic;
  /// Steal-half work stealing between worker deques.  Off = pure static
  /// schedule (the baseline the E14 bench gates against).
  bool stealing = true;
  /// Optional live progress counters (obs/progress.hpp).
  obs::CampaignProgress* progress = nullptr;
};

struct StreamStats {
  std::size_t runs = 0;          ///< total run count (absolute index space)
  std::size_t start = 0;         ///< first executed run index (resume)
  std::size_t groups = 0;        ///< groups executed
  std::size_t threads_used = 0;
  std::size_t window = 0;        ///< resolved reorder window (runs)
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t window_waits = 0;     ///< claims throttled by the window
  std::size_t peak_pending_groups = 0;  ///< reorder-buffer high-water mark
  double wall_ms = 0.0;
};

class StreamRunner {
 public:
  /// Executes the lane group covering runs [first, first + metrics.size()),
  /// recording run first + k into metrics[k] / health[k].  Runs on an
  /// arbitrary worker thread; must touch only the handed spans.
  using GroupFn = std::function<void(
      std::size_t first, std::span<trace::MetricsRegistry> metrics,
      std::span<obs::HealthReport> health)>;

  /// Receives every executed group strictly in ascending index order (the
  /// ReorderFold contract: serialized, never concurrent, free to move the
  /// buffers out).
  using SinkFn = std::function<void(GroupResult&)>;

  explicit StreamRunner(StreamOptions options = {});

  const StreamOptions& options() const { return options_; }

  /// Executes runs [0, runs).
  StreamStats run(std::size_t runs, const GroupFn& group,
                  const SinkFn& sink) const;

  /// Resume form: executes runs [start, runs) with lane groups tiled on
  /// ABSOLUTE batch boundaries, so a resumed campaign reproduces the
  /// uninterrupted run's exact group structure.  \p start must be
  /// group-aligned (a multiple of batch, or == runs).
  StreamStats run(std::size_t runs, std::size_t start, const GroupFn& group,
                  const SinkFn& sink) const;

 private:
  StreamOptions options_;
};

}  // namespace iecd::campaign
