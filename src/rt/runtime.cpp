#include "rt/runtime.hpp"

#include <stdexcept>

#include "trace/trace.hpp"
#include "util/strings.hpp"

namespace iecd::rt {

Runtime::Runtime(mcu::Mcu& mcu, beans::BeanProject& project,
                 codegen::GeneratedApplication& app)
    : mcu_(mcu), project_(project), app_(app) {
  if (!project.bound()) {
    throw std::logic_error("Runtime: bean project must be bound to the MCU");
  }
  for (const auto& bean : project.beans()) {
    if (auto* t = dynamic_cast<beans::TimerIntBean*>(bean.get())) {
      if (!timer_) timer_ = t;
    }
    if (auto* w = dynamic_cast<beans::WatchdogBean*>(bean.get())) {
      if (!watchdog_) watchdog_ = w;
    }
  }
}

std::string Runtime::periodic_profile_key() const {
  return timer_ ? profile_key(timer_->name(), "OnInterrupt") : std::string();
}

model::SimContext Runtime::context_now() const {
  model::SimContext ctx;
  ctx.t = sim::to_seconds(mcu_.now());
  ctx.dt = period_s();
  return ctx;
}

double Runtime::period_s() const {
  for (const auto& t : app_.tasks) {
    if (t.trigger == codegen::TaskSpec::Trigger::kPeriodic) return t.period_s;
  }
  return 0.0;
}

std::uint64_t Runtime::step_cycles() const {
  for (std::size_t i = 0; i < app_.tasks.size(); ++i) {
    if (app_.tasks[i].trigger == codegen::TaskSpec::Trigger::kPeriodic) {
      return app_.task_cycles(i, mcu_.spec().costs);
    }
  }
  return 0;
}

void Runtime::step_once(const model::SimContext& ctx) {
  for (auto& t : app_.tasks) {
    if (t.trigger != codegen::TaskSpec::Trigger::kPeriodic) continue;
    if (t.read) t.read(ctx);
    if (t.compute) t.compute(ctx);
    if (t.write) t.write(ctx);
    ++periodic_activations_;
    if (auto* tr = trace::recorder()) {
      tr->instant("rt", "pil_step", "rt_sched", mcu_.now(),
                  static_cast<double>(periodic_activations_));
    }
    return;
  }
}

void Runtime::install_periodic_task(std::size_t index) {
  if (!timer_) {
    throw std::logic_error(
        "Runtime: no TimerInt bean in the project for the periodic task");
  }
  codegen::TaskSpec* task = &app_.tasks[index];
  const std::uint64_t cycles = app_.task_cycles(index, mcu_.spec().costs);
  mcu::IsrHandler handler;
  handler.name = task->name;
  handler.stack_bytes = task->stack_bytes;
  handler.body = [this, task, cycles]() -> std::uint64_t {
    const model::SimContext ctx = context_now();
    if (task->read) task->read(ctx);
    if (task->compute) task->compute(ctx);
    ++periodic_activations_;
    return cycles + draw_overrun_cycles();
  };
  handler.commit = [this, task] {
    // Outputs reach the peripherals when the ISR retires: the generated
    // code's genuine sampling-to-actuation delay.
    if (task->write) task->write(context_now());
    // Service the COP from the model step: if the step stops running (or
    // chronically overruns), the watchdog bites.
    if (watchdog_) watchdog_->Clear();
  };
  timer_->set_event_handler("OnInterrupt", std::move(handler));
}

void Runtime::install_event_task(std::size_t index) {
  codegen::TaskSpec* task = &app_.tasks[index];
  beans::Bean* bean = project_.find(task->event_bean);
  if (!bean) {
    throw std::logic_error("Runtime: event task references unknown bean " +
                           task->event_bean);
  }
  const std::uint64_t cycles = app_.task_cycles(index, mcu_.spec().costs);
  mcu::IsrHandler handler;
  handler.name = task->name;
  handler.stack_bytes = task->stack_bytes;
  handler.body = [this, task, cycles]() -> std::uint64_t {
    const model::SimContext ctx = context_now();
    if (task->read) task->read(ctx);
    if (task->compute) task->compute(ctx);
    return cycles;
  };
  handler.commit = [this, task] {
    if (task->write) task->write(context_now());
  };
  bean->set_event_handler(task->event_name, std::move(handler));
}

void Runtime::attach_monitors(obs::MonitorHub& hub) {
  monitors_ = &hub;
  monitor_cache_.clear();
  for (const auto& task : app_.tasks) {
    obs::TimingMonitor::Config config;
    std::string dispatch_key;
    if (task.trigger == codegen::TaskSpec::Trigger::kPeriodic) {
      // Implicit deadline: the next activation must not find the previous
      // one still running.
      config.period_s = task.period_s;
      config.deadline_s = task.period_s;
      dispatch_key = periodic_profile_key();
    } else {
      dispatch_key = profile_key(task.event_bean, task.event_name);
    }
    if (dispatch_key.empty()) continue;
    // Monitors live in the hub under the application-level task name; the
    // cache maps the ISR trampoline name the dispatch records carry.
    monitor_cache_.emplace(
        std::move(dispatch_key),
        MonitorEntry{&hub.timing(task.name, config), task.name});
  }
}

const obs::TimingMonitor* Runtime::monitor(
    std::string_view dispatch_key) const {
  const auto it = monitor_cache_.find(dispatch_key);
  return it == monitor_cache_.end() ? nullptr : it->second.monitor;
}

void Runtime::set_overrun_hook(std::function<std::uint64_t()> hook) {
  overrun_hook_ = std::move(hook);
}

void Runtime::set_background_task(std::function<std::uint64_t()> chunk) {
  mcu_.cpu().set_background(std::move(chunk));
  mcu_.cpu().kick();
}

void Runtime::start() {
  if (started_) return;
  started_ = true;
  // No caller hub: the runtime's own hub is the timing store.
  if (monitors_ == &own_monitors_) attach_monitors(own_monitors_);

  mcu_.cpu().set_dispatch_observer([this](const mcu::DispatchRecord& rec) {
    if (auto* tr = trace::recorder()) {
      // Scheduling decision record: per-task execution time on the rt
      // track (the Cpu track already carries the dispatch slice itself).
      tr->counter("rt", std::string(rec.name) + ".exec_us", "rt_sched",
                  rec.end_time,
                  sim::to_microseconds(rec.end_time - rec.start_time));
    }
    auto it = monitor_cache_.find(rec.name);
    if (it == monitor_cache_.end()) {
      // ISR not declared as a task (e.g. a bean's own service interrupt):
      // create its monitor lazily, aperiodic and deadline-free.
      std::string name(rec.name);
      it = monitor_cache_
               .emplace(name, MonitorEntry{&monitors_->timing(name), name})
               .first;
    }
    if (it->second.monitor->record(rec.raise_time, rec.start_time,
                                   rec.end_time)) {
      monitors_->flight().trigger("deadline_miss", rec.end_time,
                                  it->second.task);
    }
  });

  for (std::size_t i = 0; i < app_.tasks.size(); ++i) {
    switch (app_.tasks[i].trigger) {
      case codegen::TaskSpec::Trigger::kPeriodic:
        if (!app_.pil_variant) install_periodic_task(i);
        break;
      case codegen::TaskSpec::Trigger::kEvent:
        install_event_task(i);
        break;
    }
  }

  if (app_.init) app_.init(context_now());
  if (watchdog_ && !app_.pil_variant) watchdog_->Enable();
  if (timer_ && !app_.pil_variant) timer_->Enable();
}

std::string Runtime::memory_report() const {
  std::string out = util::format(
      "estimated: data %u B, code %u B, task stack %u B\n",
      app_.memory.data_bytes, app_.memory.code_bytes,
      app_.memory.stack_bytes);
  out += util::format("observed worst-case stack on target: %u B\n",
                      mcu_.cpu().max_stack_bytes());
  return out;
}

}  // namespace iecd::rt
