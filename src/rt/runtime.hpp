/// \file runtime.hpp
/// Deploys a GeneratedApplication onto the simulated MCU: the periodic
/// model step runs inside the timer bean's interrupt (non-preemptively),
/// event tasks inside their bean-event ISRs, initialization in main — the
/// exact execution infrastructure the paper's target defines.  Inputs are
/// sampled at ISR start, outputs commit at ISR end, so the generated
/// application exhibits the true sampling-to-actuation delay.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "beans/bean_project.hpp"
#include "beans/timer_int_bean.hpp"
#include "beans/watchdog_bean.hpp"
#include "codegen/generated_app.hpp"
#include "mcu/mcu.hpp"
#include "obs/monitor.hpp"

namespace iecd::rt {

class Runtime {
 public:
  /// \p project must already be bound to \p mcu.
  Runtime(mcu::Mcu& mcu, beans::BeanProject& project,
          codegen::GeneratedApplication& app);

  /// Installs ISR handlers, runs application init, and enables the timer.
  /// For PIL variants the periodic task is NOT timer-driven; the PIL target
  /// agent triggers it per received frame (call step_once() from there).
  void start();

  /// Executes one activation of the periodic task "by hand" — the PIL
  /// path, where the communication ISR stands in for the timer (must be
  /// invoked from ISR context; cost accounting happens in the caller).
  void step_once(const model::SimContext& ctx);

  /// Charges one periodic-step activation in cycles (for callers that
  /// embed the step in their own ISR).
  std::uint64_t step_cycles() const;

  /// Fault-injection hook (see src/fault/): extra cycles charged to a
  /// periodic-step activation — a task overrun (data-dependent worst-case
  /// path, cache-cold iteration).  The hook is drawn once per activation,
  /// both on the timer-driven path and — via draw_overrun_cycles() — on
  /// the PIL path where the communication ISR embeds the step.  Null (the
  /// default) leaves timing untouched.
  void set_overrun_hook(std::function<std::uint64_t()> hook);
  /// One overrun draw for callers that embed the step in their own ISR
  /// (the PIL target agent); 0 when no hook is installed.
  std::uint64_t draw_overrun_cycles() {
    return overrun_hook_ ? overrun_hook_() : 0;
  }

  /// Re-points the dispatch path at \p hub.  Every retired dispatch is
  /// recorded exactly once, into the TimingMonitor of its task: release
  /// (raise), service start and completion, so execution time, response
  /// time (completion - release), activation jitter and deadline misses
  /// all come from that one store.  Every task in the application gets its
  /// monitor up front (periodic tasks with their period as implicit
  /// deadline); an ISR that is not a task gets an aperiodic one at its
  /// first dispatch; a deadline miss fires the hub's flight recorder with
  /// the offending task's name.  Without a caller hub, start() attaches a
  /// hub the runtime owns, so the figures exist either way.  Call before
  /// start() to keep a run's dispatches in one hub; monitoring is passive
  /// and does not perturb the simulation.
  void attach_monitors(obs::MonitorHub& hub);
  /// The hub the dispatch path currently records into.
  const obs::MonitorHub& monitors() const { return *monitors_; }
  /// The monitor fed by dispatches named \p dispatch_key (see
  /// periodic_profile_key() / profile_key()); null until a hub is attached
  /// (by the caller or by start()) and before an undeclared ISR's first
  /// dispatch.
  const obs::TimingMonitor* monitor(std::string_view dispatch_key) const;
  /// The project's watchdog bean, if any (the kernel services it from the
  /// periodic task; a stuck or chronically overrunning step gets caught).
  beans::WatchdogBean* watchdog() { return watchdog_; }
  /// Current target time in seconds (the MCU's world clock).
  double now_seconds() const { return sim::to_seconds(mcu_.now()); }

  /// Dispatch key of the periodic model step.  Dispatch records carry the
  /// ISR trampoline name "<bean>.<event>", so the periodic task is timed
  /// under the timer bean's interrupt.
  std::string periodic_profile_key() const;
  /// Dispatch key of a bean-event ISR.
  static std::string profile_key(const std::string& bean,
                                 const std::string& event) {
    return bean + "." + event;
  }
  beans::TimerIntBean* timer() { return timer_; }
  double period_s() const;

  /// Installs the manually-written background task (the paper: "There can
  /// also be executed a manually written background task").  The callable
  /// performs one chunk of work and returns its cycle cost; it runs only
  /// while no interrupt is pending and yields at chunk boundaries.
  void set_background_task(std::function<std::uint64_t()> chunk);

  /// Memory/stack report combining the codegen estimate with the observed
  /// worst-case stack on the simulated CPU.
  std::string memory_report() const;

  std::uint64_t periodic_activations() const { return periodic_activations_; }

 private:
  void install_periodic_task(std::size_t index);
  void install_event_task(std::size_t index);
  model::SimContext context_now() const;

  mcu::Mcu& mcu_;
  beans::BeanProject& project_;
  codegen::GeneratedApplication& app_;
  beans::TimerIntBean* timer_ = nullptr;
  beans::WatchdogBean* watchdog_ = nullptr;
  std::uint64_t periodic_activations_ = 0;
  bool started_ = false;
  std::function<std::uint64_t()> overrun_hook_;
  obs::MonitorHub own_monitors_;  ///< the store when no hub is attached
  obs::MonitorHub* monitors_ = &own_monitors_;
  /// Dispatch-name ("<bean>.<event>") -> monitor + task label.  Transparent
  /// comparator: the dispatch observer looks up by the record's string_view
  /// without materializing a key string per activation.
  struct MonitorEntry {
    obs::TimingMonitor* monitor = nullptr;
    std::string task;  ///< application-level task name for reports/triggers
  };
  std::map<std::string, MonitorEntry, std::less<>> monitor_cache_;
};

}  // namespace iecd::rt
