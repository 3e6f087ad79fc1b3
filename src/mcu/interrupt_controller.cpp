#include "mcu/interrupt_controller.hpp"

#include <algorithm>
#include <stdexcept>

namespace iecd::mcu {

void InterruptController::register_vector(IrqVector vec, int priority,
                                          IsrHandler handler) {
  if (find(vec)) {
    throw std::logic_error("InterruptController: vector registered twice");
  }
  if (!handler.body) {
    throw std::invalid_argument("InterruptController: handler without body");
  }
  Line line;
  line.vec = vec;
  line.priority = priority;
  line.handler = std::move(handler);
  lines_.push_back(std::move(line));
  std::sort(lines_.begin(), lines_.end(), [](const Line& a, const Line& b) {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.vec < b.vec;
  });
}

InterruptController::Line* InterruptController::find(IrqVector vec) {
  for (auto& l : lines_) {
    if (l.vec == vec) return &l;
  }
  return nullptr;
}

const InterruptController::Line* InterruptController::find(
    IrqVector vec) const {
  for (const auto& l : lines_) {
    if (l.vec == vec) return &l;
  }
  return nullptr;
}

bool InterruptController::is_registered(IrqVector vec) const {
  return find(vec) != nullptr;
}

void InterruptController::set_enabled(IrqVector vec, bool enabled) {
  Line* line = find(vec);
  if (!line) throw std::invalid_argument("set_enabled: unknown vector");
  line->enabled = enabled;
}

bool InterruptController::enabled(IrqVector vec) const {
  const Line* line = find(vec);
  return line && line->enabled;
}

bool InterruptController::raise(IrqVector vec, sim::SimTime now) {
  Line* line = find(vec);
  if (!line || !line->enabled) return false;
  if (line->pending) {
    ++overruns_;
    return false;
  }
  line->pending = true;
  line->raise_time = now;
  return true;
}

bool InterruptController::any_pending() const {
  return std::any_of(lines_.begin(), lines_.end(), [](const Line& l) {
    return l.pending && l.enabled;
  });
}

IrqVector InterruptController::acknowledge() {
  for (auto& l : lines_) {  // lines_ sorted by priority
    if (l.pending && l.enabled) {
      l.pending = false;
      last_raise_time_ = l.raise_time;
      return l.vec;
    }
  }
  return -1;
}

const IsrHandler& InterruptController::handler(IrqVector vec) const {
  const Line* line = find(vec);
  if (!line) throw std::invalid_argument("handler: unknown vector");
  return line->handler;
}

}  // namespace iecd::mcu
