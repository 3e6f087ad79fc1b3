#include "sim/world.hpp"

#include "trace/trace.hpp"

namespace iecd::sim {

std::size_t World::run_until(SimTime until) {
  trace::TraceRecorder* tr = trace::recorder();
  if (!tr) return queue_.run_until(until);
  const SimTime begin = queue_.now();
  const std::size_t executed = queue_.run_until(until);
  tr->span_complete("sim", "run_until", "world", begin, queue_.now(),
                    static_cast<double>(executed));
  return executed;
}

}  // namespace iecd::sim
