/// \file world.hpp
/// A co-simulation world: the one event queue and clock that MCU boards,
/// plants, serial links and instrument probes share.  The world corresponds
/// to the whole Fig. 6.2 test bench — host PC, simulator PC and development
/// board share simulated time.  A world and the hardware living in it are
/// built for one run and dropped after it; to start over, build a new one.
#pragma once

#include <cstddef>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace iecd::sim {

class World {
 public:
  EventQueue& queue() { return queue_; }
  const EventQueue& queue() const { return queue_; }
  SimTime now() const { return queue_.now(); }

  /// Advances simulated time to \p until, executing due events.  When
  /// tracing is active the window is recorded as one "run_until" span on
  /// the world track (value = events executed).
  std::size_t run_until(SimTime until);

  /// Advances by \p duration from the current time.
  std::size_t run_for(SimTime duration) {
    return run_until(queue_.now() + duration);
  }

 private:
  EventQueue queue_;
};

}  // namespace iecd::sim
