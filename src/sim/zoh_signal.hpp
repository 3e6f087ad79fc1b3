/// \file zoh_signal.hpp
/// Zero-order-hold signal: a piecewise-constant value with a change log.
/// Producers (PWM average output, DAC-like actuators) write new values at
/// simulation timestamps; consumers (the plant integrator) query the value
/// at arbitrary times or integrate exactly across the change points.  Old
/// history is pruned on demand so long runs stay O(1) in memory; a read
/// behind the pruned horizon throws instead of guessing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>

#include "sim/time.hpp"

namespace iecd::sim {

class ZohSignal {
 public:
  explicit ZohSignal(double initial = 0.0) { set(0, initial); }

  /// Records a new value effective from \p when (must be monotonically
  /// non-decreasing).  Setting an identical value is a no-op.
  void set(SimTime when, double value) {
    if (!changes_.empty()) {
      if (when < changes_.back().when) {
        throw std::invalid_argument("ZohSignal: non-monotonic write");
      }
      if (changes_.back().value == value) return;
      if (changes_.back().when == when) {
        changes_.back().value = value;
        return;
      }
    }
    changes_.push_back({when, value});
  }

  /// A constant stretch of the signal: its value over [start, end), where
  /// end is the next change or kNever.  Writes only append at or after the
  /// newest change, so a piece with a finite end never changes.
  struct Piece {
    double value;
    SimTime start;
    SimTime end;
  };

  /// The piece holding time \p t.  Throws std::logic_error for a t behind
  /// the pruned horizon, whose value is gone.
  Piece piece_at(SimTime t) const {
    // A live signal is read at or just behind its newest change, so that
    // is checked first; an older time (a pre-filled schedule) is found by
    // binary search.
    const Change& newest = changes_.back();
    if (newest.when <= t) return {newest.value, newest.when, kNever};
    auto it = std::upper_bound(
        changes_.begin(), changes_.end(), t,
        [](SimTime time, const Change& c) { return time < c.when; });
    if (it == changes_.begin()) {
      throw std::logic_error("ZohSignal: read behind the pruned horizon");
    }
    const Change& held = *std::prev(it);
    return {held.value, held.when, it->when};
  }

  /// Value at time \p t (the most recent change at or before t); throws
  /// like piece_at().
  double value_at(SimTime t) const { return piece_at(t).value; }

  /// Current (latest) value.
  double value() const { return changes_.back().value; }

  /// Exact integral of the signal over [t0, t1] in value * seconds.
  double integrate(SimTime t0, SimTime t1) const {
    if (t1 < t0) throw std::invalid_argument("ZohSignal: t1 < t0");
    if (t0 < changes_.front().when) {
      throw std::logic_error("ZohSignal: read behind the pruned horizon");
    }
    // Binary-search the change straddling t0 instead of scanning the
    // whole history; the accumulation order over [t0, t1] is unchanged.
    auto it = std::upper_bound(
        changes_.begin(), changes_.end(), t0,
        [](SimTime t, const Change& c) { return t < c.when; });
    double current = std::prev(it)->value;
    double acc = 0.0;
    SimTime cursor = t0;
    for (; it != changes_.end() && it->when < t1; ++it) {
      acc += current * to_seconds(it->when - cursor);
      cursor = it->when;
      current = it->value;
    }
    acc += current * to_seconds(t1 - cursor);
    return acc;
  }

  /// Drops change records strictly before \p t (keeping the value at t).
  void prune_before(SimTime t) {
    while (changes_.size() > 1 && changes_[1].when <= t) {
      changes_.pop_front();
    }
    if (changes_.front().when < t) changes_.front().when = t;
  }

  std::size_t change_count() const { return changes_.size(); }

 private:
  struct Change {
    SimTime when;
    double value;
  };
  std::deque<Change> changes_;
};

}  // namespace iecd::sim
