#include "mcu/cpu.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace iecd::mcu {

Cpu::Cpu(sim::EventQueue& queue, const Clock& clock, const CostModel& costs,
         InterruptController& intc)
    : queue_(queue), clock_(clock), costs_(costs), intc_(intc) {}

void Cpu::set_background(std::function<std::uint64_t()> chunk) {
  background_ = std::move(chunk);
}

void Cpu::set_dispatch_observer(
    std::function<void(const DispatchRecord&)> obs) {
  observer_ = std::move(obs);
}

void Cpu::set_dispatch_fault(
    std::function<std::uint64_t(const DispatchRecord&)> fault) {
  dispatch_fault_ = std::move(fault);
}

void Cpu::set_main_stack_bytes(std::uint32_t bytes) {
  main_stack_ = bytes;
  max_stack_ = std::max(max_stack_, bytes);
}

void Cpu::kick() {
  if (busy_) return;  // completion handler will re-check pending vectors
  dispatch_next();
}

void Cpu::dispatch_next() {
  const IrqVector vec = intc_.acknowledge();
  if (vec < 0) {
    run_background();
    return;
  }
  const IsrHandler& handler = intc_.handler(vec);
  busy_ = true;

  DispatchRecord rec;
  rec.vec = vec;
  rec.name = handler.name;
  rec.raise_time = intc_.last_raise_time();
  rec.start_time = queue_.now();

  max_stack_ = std::max(max_stack_, main_stack_ + handler.stack_bytes);

  // The body runs logically at dispatch time (inputs sampled now); outputs
  // commit when the ISR retires, entry + body + exit cycles later.
  rec.body_cycles = handler.body();
  std::uint64_t total_cycles =
      costs_.isr_entry + rec.body_cycles + costs_.isr_exit;
  if (dispatch_fault_) total_cycles += dispatch_fault_(rec);
  const sim::SimTime duration = clock_.cycles_to_time(total_cycles);
  busy_time_ += duration;

  queue_.schedule_in(duration, [this, rec]() mutable {
    const IsrHandler& h = intc_.handler(rec.vec);
    if (h.commit) h.commit();
    rec.end_time = queue_.now();
    busy_ = false;
    ++dispatches_;
    if (auto* tr = trace::recorder()) {
      // The dispatch slice (service start -> retire) carries the body
      // cycles; the response-time counter is raise -> service start.
      tr->span_complete("mcu", rec.name, "cpu", rec.start_time, rec.end_time,
                        static_cast<double>(rec.body_cycles));
      tr->counter("mcu", "response_us", "cpu", rec.start_time,
                  sim::to_microseconds(rec.start_time - rec.raise_time));
    }
    if (observer_) observer_(rec);
    dispatch_next();
  });
}

void Cpu::run_background() {
  if (!background_) return;
  const std::uint64_t cycles = background_();
  if (cycles == 0) return;  // idle until next kick
  busy_ = true;
  const sim::SimTime duration = clock_.cycles_to_time(cycles);
  busy_time_ += duration;
  const sim::SimTime started = queue_.now();
  queue_.schedule_in(duration, [this, started, cycles] {
    busy_ = false;
    if (auto* tr = trace::recorder()) {
      tr->span_complete("mcu", "background", "cpu", started, queue_.now(),
                        static_cast<double>(cycles));
    }
    dispatch_next();
  });
}

}  // namespace iecd::mcu
