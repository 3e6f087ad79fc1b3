#include "beans/timer_int_bean.hpp"

#include "beans/solvers.hpp"
#include "util/strings.hpp"

namespace iecd::beans {

TimerIntBean::TimerIntBean(std::string name) : Bean(std::move(name), "TimerInt") {
  properties().declare(PropertySpec::real(
      "period_s", 0.001, 1e-7, 3600.0, "interrupt period (sample time)"));
  properties().declare(PropertySpec::real(
      "tolerance_percent", 0.1, 0.0, 50.0, "acceptable period error"));
  properties().declare(PropertySpec::integer(
      "interrupt_priority", 1, 0, 15, "OnInterrupt priority"));
  properties().declare(
      PropertySpec::integer("prescaler", 0, 0, 1 << 16, "derived prescaler")
          .derived());
  properties().declare(
      PropertySpec::integer("modulo", 0, 0, INT64_C(1) << 33, "derived modulo")
          .derived());
  properties().declare(
      PropertySpec::real("achieved_period_s", 0.0, 0.0, 3600.0,
                         "derived actual period")
          .derived());
  properties().declare(
      PropertySpec::real("period_error_percent", 0.0, 0.0, 100.0,
                         "derived |achieved-requested|/requested")
          .derived());
}

std::vector<MethodSpec> TimerIntBean::methods() const {
  return {
      {"Enable", "byte %M_Enable(void)", "start periodic interrupts"},
      {"Disable", "byte %M_Disable(void)", "stop periodic interrupts"},
  };
}

std::vector<EventSpec> TimerIntBean::events() const {
  return {{"OnInterrupt", "periodic timer interrupt (sample hit)"}};
}

ResourceDemand TimerIntBean::demand() const {
  ResourceDemand d;
  d.timer_channels = 1;
  return d;
}

void TimerIntBean::validate(const mcu::DerivativeSpec& cpu,
                            util::DiagnosticList& diagnostics) {
  properties().reset_derived();  // a failed solve keeps no earlier timing
  if (cpu.timer_channels <= 0) {
    diagnostics.error(name(), "no timer channel available on " + cpu.name);
    return;
  }
  const double period = properties().get_real("period_s");
  const double tol = properties().get_real("tolerance_percent") / 100.0;
  const auto sol = solve_timer_period(cpu, period, tol);
  if (!sol) {
    diagnostics.error(
        name() + ".period_s",
        util::format("period %.9g s not achievable on %s within %.3f%% "
                     "(prescalers %u..%u, %u-bit modulo)",
                     period, cpu.name.c_str(), tol * 100.0,
                     cpu.timer_prescalers.front(), cpu.timer_prescalers.back(),
                     cpu.timer_modulo_bits));
    return;
  }
  properties().set_derived("prescaler",
                           static_cast<std::int64_t>(sol->prescaler));
  properties().set_derived("modulo", static_cast<std::int64_t>(sol->modulo));
  properties().set_derived("achieved_period_s", sol->achieved_period_s);
  properties().set_derived("period_error_percent",
                           sol->relative_error * 100.0);
  diagnostics.info(
      name(),
      util::format("timer solved: prescaler %u, modulo %u -> %.9g s "
                   "(error %.4f%%)",
                   sol->prescaler, sol->modulo, sol->achieved_period_s,
                   sol->relative_error * 100.0));
}

void TimerIntBean::bind(BindContext& ctx) {
  periph::TimerConfig cfg;
  cfg.prescaler =
      static_cast<std::uint32_t>(properties().get_int("prescaler"));
  cfg.modulo = static_cast<std::uint32_t>(properties().get_int("modulo"));
  if (cfg.prescaler == 0 || cfg.modulo == 0) {
    throw std::logic_error("TimerIntBean: bind() before successful validate()");
  }
  cfg.overflow_vector = register_event(
      ctx, "OnInterrupt",
      static_cast<int>(properties().get_int("interrupt_priority")));
  timer_ = std::make_unique<periph::TimerPeripheral>(ctx.mcu, cfg, name());
  mark_bound();
}

void TimerIntBean::Enable() {
  if (timer_) timer_->start();
}

void TimerIntBean::Disable() {
  if (timer_) timer_->stop();
}

DriverSource TimerIntBean::driver_source() const {
  DriverSource out;
  out.header_name = name() + ".h";
  out.source_name = name() + ".c";
  out.header = driver_header_prologue() + driver_method_decls() +
               "\n#endif /* __" + name() + "_H */\n";
  std::string c = "#include \"" + name() + ".h\"\n\n";
  c += util::format("/* prescaler %lld, modulo %lld -> period %.9g s */\n",
                    static_cast<long long>(properties().get_int("prescaler")),
                    static_cast<long long>(properties().get_int("modulo")),
                    properties().get_real("achieved_period_s"));
  if (method_enabled("Enable")) {
    c += "byte " + name() +
         "_Enable(void) { TMR_CTRL |= TMR_CM_RISING; return ERR_OK; }\n";
  }
  if (method_enabled("Disable")) {
    c += "byte " + name() +
         "_Disable(void) { TMR_CTRL &= ~TMR_CM_MASK; return ERR_OK; }\n";
  }
  out.source = c;
  return out;
}

}  // namespace iecd::beans
