#include "campaign/stream.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

namespace iecd::campaign {

namespace {

/// A contiguous span of group indices [lo, hi) sitting in a worker deque.
struct Range {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t size() const { return hi - lo; }
};

/// One worker's deque of ranges, ascending by index.  The owner pops
/// single groups off the front; thieves take the back half.  The mutex is
/// uncontended except at steal time (the owner's pop is a few scalar ops).
struct WorkerQueue {
  std::mutex mu;
  std::deque<Range> ranges;

  /// Owner claim: lowest remaining group, or false when empty.
  bool pop_front(std::size_t& group) {
    std::lock_guard<std::mutex> lock(mu);
    if (ranges.empty()) return false;
    Range& front = ranges.front();
    group = front.lo++;
    if (front.lo == front.hi) ranges.pop_front();
    return true;
  }

  /// Thief: removes roughly half of the remaining groups from the BACK —
  /// whole back ranges while they make up at most half, then a split of
  /// the last range if needed.  Returns the stolen ranges (ascending);
  /// empty when the victim had nothing.
  std::vector<Range> steal_half() {
    std::lock_guard<std::mutex> lock(mu);
    std::size_t total = 0;
    for (const Range& r : ranges) total += r.size();
    if (total == 0) return {};
    const std::size_t want = (total + 1) / 2;  // at least 1
    std::vector<Range> stolen;
    std::size_t got = 0;
    while (got < want && !ranges.empty()) {
      Range& back = ranges.back();
      const std::size_t need = want - got;
      if (back.size() <= need) {
        stolen.push_back(back);
        ranges.pop_back();
        got += stolen.back().size();
      } else {
        stolen.push_back(Range{back.hi - need, back.hi});
        back.hi -= need;
        got += need;
      }
    }
    std::reverse(stolen.begin(), stolen.end());  // ascending
    return stolen;
  }

  void push_ranges(std::vector<Range>&& stolen) {
    std::lock_guard<std::mutex> lock(mu);
    for (Range& r : stolen) ranges.push_back(r);
  }
};

std::size_t resolve_threads(std::size_t requested, std::size_t groups) {
  std::size_t threads = requested;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return std::min(threads, std::max<std::size_t>(1, groups));
}

}  // namespace

StreamRunner::StreamRunner(StreamOptions options) : options_(options) {}

StreamStats StreamRunner::run(std::size_t runs, const GroupFn& group,
                              const SinkFn& sink) const {
  return run(runs, 0, group, sink);
}

StreamStats StreamRunner::run(std::size_t runs, std::size_t start,
                              const GroupFn& group_fn,
                              const SinkFn& sink) const {
  StreamStats stats;
  stats.runs = runs;
  stats.start = start;
  // A width above the run count tiles like one group of every run, and
  // clamping it first keeps the tiling and window arithmetic from wrapping.
  const std::size_t batch = std::clamp<std::size_t>(
      options_.batch, 1, std::max<std::size_t>(runs, 1));
  assert((start % batch == 0 || start >= runs) &&
         "resume start must sit on a lane-group boundary");
  if (start > runs) start = runs;
  // Groups live in the ABSOLUTE index space: group g covers
  // [g * batch, min(runs, (g + 1) * batch)) — identical tiling whether the
  // campaign runs through or resumes at a checkpoint watermark.
  const std::size_t group_begin = start / batch;
  const std::size_t group_end = (runs + batch - 1) / batch;
  const std::size_t groups =
      group_end > group_begin ? group_end - group_begin : 0;
  stats.groups = groups;
  const std::size_t threads = resolve_threads(options_.threads, groups);
  stats.threads_used = threads;

  const std::size_t chunk = options_.chunk ? options_.chunk : 4;
  std::size_t window = options_.window;
  if (window == 0) {
    // Cyclic placement: every worker's initial front must be eligible —
    // worker w's first group starts at w * chunk * batch runs past the
    // watermark.  Contiguous placement cannot run under a bounded window
    // (every worker but the first would stall), so its auto window is
    // effectively unbounded: the old all-in-memory behaviour.
    window = options_.placement == Placement::kCyclic
                 ? std::max<std::size_t>(2 * threads * chunk * batch, 64)
                 : std::numeric_limits<std::size_t>::max() / 2;
  }
  stats.window = window;
  if (options_.progress != nullptr) {
    options_.progress->runs_total.store(runs, std::memory_order_relaxed);
  }
  if (groups == 0) return stats;

  const auto t0 = std::chrono::steady_clock::now();

  auto make_buffers = [&](std::size_t g) {
    auto result = std::make_unique<GroupResult>();
    result->first = g * batch;
    const std::size_t count = std::min(runs - result->first, batch);
    result->metrics.resize(count);
    result->health.resize(count);
    return result;
  };
  auto finish_group = [&](GroupResult& result) {
    sink(result);
    if (options_.progress != nullptr) {
      options_.progress->groups_completed.fetch_add(
          1, std::memory_order_relaxed);
      options_.progress->runs_completed.fetch_add(
          result.metrics.size(), std::memory_order_relaxed);
    }
  };

  if (threads == 1) {
    // Sequential reference execution: claim, execute and fold each group
    // in index order — the byte-identity baseline for every parallel
    // schedule, with no locks in the loop.
    for (std::size_t g = group_begin; g < group_end; ++g) {
      auto result = make_buffers(g);
      group_fn(result->first,
               std::span<trace::MetricsRegistry>(result->metrics),
               std::span<obs::HealthReport>(result->health));
      finish_group(*result);
    }
    stats.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    return stats;
  }

  ReorderFold fold(start, window, finish_group);

  // Deal chunks of groups to the worker deques.
  std::vector<WorkerQueue> workers(threads);
  const std::size_t chunks = (groups + chunk - 1) / chunk;
  if (options_.placement == Placement::kCyclic) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = group_begin + c * chunk;
      const std::size_t hi = std::min(group_end, lo + chunk);
      workers[c % threads].ranges.push_back(Range{lo, hi});
    }
  } else {
    // Contiguous static tiling: worker w owns one solid block of chunks.
    const std::size_t per = (chunks + threads - 1) / threads;
    for (std::size_t w = 0; w < threads; ++w) {
      const std::size_t c0 = std::min(chunks, w * per);
      const std::size_t c1 = std::min(chunks, c0 + per);
      if (c0 == c1) continue;
      const std::size_t lo = group_begin + c0 * chunk;
      const std::size_t hi = std::min(group_end, group_begin + c1 * chunk);
      workers[w].ranges.push_back(Range{lo, hi});
    }
  }

  std::atomic<std::size_t> unclaimed{groups};
  std::atomic<std::uint64_t> steals{0}, steal_attempts{0}, window_waits{0};
  const bool stealing = options_.stealing;
  obs::CampaignProgress* progress = options_.progress;

  auto worker_loop = [&](std::size_t id) {
    std::size_t g = 0;
    for (;;) {
      bool have = workers[id].pop_front(g);
      if (!have && stealing) {
        // Scan victims round-robin from our right-hand neighbour; the
        // steal moves the victim's back half into our empty deque, then
        // we claim its front (our new lowest).
        for (std::size_t k = 1; k < threads && !have; ++k) {
          const std::size_t victim = (id + k) % threads;
          steal_attempts.fetch_add(1, std::memory_order_relaxed);
          std::vector<Range> stolen = workers[victim].steal_half();
          if (stolen.empty()) continue;
          steals.fetch_add(1, std::memory_order_relaxed);
          workers[id].push_ranges(std::move(stolen));
          have = workers[id].pop_front(g);
        }
      }
      if (!have) {
        if (!stealing) break;
        if (unclaimed.load(std::memory_order_acquire) == 0) break;
        // Transient: every remaining group is mid-steal somewhere.
        std::this_thread::yield();
        continue;
      }
      unclaimed.fetch_sub(1, std::memory_order_acq_rel);

      const std::size_t first = g * batch;
      if (!fold.eligible(first)) {
        // Reorder-window throttle: wait for the fold to catch up.  Safe:
        // the watermark group's holder is never parked here (it claims
        // lowest-first), so the fold always advances.
        window_waits.fetch_add(1, std::memory_order_relaxed);
        if (progress != nullptr) {
          progress->window_waits.fetch_add(1, std::memory_order_relaxed);
        }
        fold.wait_eligible(first, [] { return false; });
      }

      auto result = make_buffers(g);
      group_fn(result->first,
               std::span<trace::MetricsRegistry>(result->metrics),
               std::span<obs::HealthReport>(result->health));
      fold.submit(std::move(result));
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    pool.emplace_back(worker_loop, w);
  }
  for (std::thread& t : pool) t.join();

  stats.steals = steals.load(std::memory_order_relaxed);
  stats.steal_attempts = steal_attempts.load(std::memory_order_relaxed);
  stats.window_waits = window_waits.load(std::memory_order_relaxed);
  stats.peak_pending_groups = fold.peak_pending();
  if (progress != nullptr) {
    progress->steals.fetch_add(stats.steals, std::memory_order_relaxed);
    progress->steal_attempts.fetch_add(stats.steal_attempts,
                                       std::memory_order_relaxed);
  }
  stats.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  return stats;
}

}  // namespace iecd::campaign
