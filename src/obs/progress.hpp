/// \file progress.hpp
/// In-flight campaign progress: lock-free counters a long-running campaign
/// updates while it executes, so an operator (campaign_ctl, a dashboard
/// poll, a test) can watch completion and scheduler behaviour without
/// touching the deterministic outputs.  Everything here is observational —
/// none of these values ever feed a merged report, so reading them at any
/// moment is race-free by construction (each counter is an independent
/// atomic; a snapshot is approximate across counters, exact per counter).
#pragma once

#include <atomic>
#include <cstdint>

namespace iecd::obs {

/// Shared between a campaign engine (writer) and any number of observers.
/// Writers use relaxed ordering: the counters are monotonic telemetry, not
/// synchronization edges.
struct CampaignProgress {
  std::atomic<std::uint64_t> runs_total{0};
  std::atomic<std::uint64_t> runs_completed{0};   ///< folded (post-sink)
  std::atomic<std::uint64_t> groups_completed{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> steal_attempts{0};
  std::atomic<std::uint64_t> window_waits{0};     ///< reorder-horizon stalls
  std::atomic<std::uint64_t> checkpoints{0};      ///< checkpoint seals

  /// Point-in-time copy (per-counter exact, cross-counter approximate).
  struct Snapshot {
    std::uint64_t runs_total = 0;
    std::uint64_t runs_completed = 0;
    std::uint64_t groups_completed = 0;
    std::uint64_t steals = 0;
    std::uint64_t steal_attempts = 0;
    std::uint64_t window_waits = 0;
    std::uint64_t checkpoints = 0;
  };

  Snapshot snapshot() const {
    Snapshot s;
    s.runs_total = runs_total.load(std::memory_order_relaxed);
    s.runs_completed = runs_completed.load(std::memory_order_relaxed);
    s.groups_completed = groups_completed.load(std::memory_order_relaxed);
    s.steals = steals.load(std::memory_order_relaxed);
    s.steal_attempts = steal_attempts.load(std::memory_order_relaxed);
    s.window_waits = window_waits.load(std::memory_order_relaxed);
    s.checkpoints = checkpoints.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace iecd::obs
