#include "beans/pwm_bean.hpp"

#include "beans/solvers.hpp"
#include "util/strings.hpp"

namespace iecd::beans {

PwmBean::PwmBean(std::string name) : Bean(std::move(name), "PWM") {
  properties().declare(PropertySpec::real(
      "frequency_hz", 20000.0, 1.0, 10e6, "switching frequency"));
  properties().declare(PropertySpec::real(
      "tolerance_percent", 1.0, 0.0, 50.0, "acceptable frequency error"));
  properties().declare(PropertySpec::real(
      "initial_duty_percent", 0.0, 0.0, 100.0, "duty after init"));
  properties().declare(PropertySpec::boolean(
      "interrupt", false, "raise OnReload every period"));
  properties().declare(PropertySpec::integer(
      "interrupt_priority", 4, 0, 15, "OnReload priority"));
  properties().declare(
      PropertySpec::integer("prescaler", 0, 0, 1 << 16, "derived prescaler")
          .derived());
  properties().declare(
      PropertySpec::integer("modulo", 0, 0, 1 << 30, "derived modulo")
          .derived());
  properties().declare(PropertySpec::real("achieved_frequency_hz", 0.0, 0.0,
                                          100e6, "derived actual frequency")
                           .derived());
  properties().declare(
      PropertySpec::integer("duty_resolution_bits", 0, 0, 32,
                            "derived effective duty precision")
          .derived());
}

std::vector<MethodSpec> PwmBean::methods() const {
  return {
      {"Enable", "byte %M_Enable(void)", "start the PWM counter"},
      {"Disable", "byte %M_Disable(void)", "stop the PWM counter"},
      {"SetRatio16", "byte %M_SetRatio16(word Ratio)",
       "set duty as 16-bit ratio"},
      {"SetDutyPercent", "byte %M_SetDutyPercent(byte Duty)",
       "set duty in percent"},
  };
}

std::vector<EventSpec> PwmBean::events() const {
  return {{"OnReload", "counter reload (period boundary)"}};
}

ResourceDemand PwmBean::demand() const {
  ResourceDemand d;
  d.pwm_channels = 1;
  return d;
}

void PwmBean::validate(const mcu::DerivativeSpec& cpu,
                       util::DiagnosticList& diagnostics) {
  properties().reset_derived();  // a failed solve keeps no earlier timing
  if (cpu.pwm_channels <= 0) {
    diagnostics.error(name(), "no PWM module on " + cpu.name);
    return;
  }
  const double freq = properties().get_real("frequency_hz");
  const double tol = properties().get_real("tolerance_percent") / 100.0;
  const auto sol = solve_pwm_frequency(cpu, freq, tol);
  if (!sol) {
    diagnostics.error(
        name() + ".frequency_hz",
        util::format("%.1f Hz not achievable on %s within %.2f%%", freq,
                     cpu.name.c_str(), tol * 100.0));
    return;
  }
  properties().set_derived("prescaler",
                           static_cast<std::int64_t>(sol->prescaler));
  properties().set_derived("modulo", static_cast<std::int64_t>(sol->modulo));
  properties().set_derived("achieved_frequency_hz",
                           sol->achieved_frequency_hz);
  properties().set_derived(
      "duty_resolution_bits",
      static_cast<std::int64_t>(sol->duty_resolution_bits));
  diagnostics.info(
      name(),
      util::format("PWM solved: prescaler %u, modulo %u -> %.1f Hz, "
                   "%d-bit duty resolution",
                   sol->prescaler, sol->modulo, sol->achieved_frequency_hz,
                   sol->duty_resolution_bits));
  if (sol->duty_resolution_bits < 8) {
    diagnostics.warning(
        name(),
        util::format("only %d bits of duty resolution at this frequency",
                     sol->duty_resolution_bits));
  }
}

void PwmBean::bind(BindContext& ctx) {
  periph::PwmConfig cfg;
  cfg.prescaler =
      static_cast<std::uint32_t>(properties().get_int("prescaler"));
  cfg.modulo = static_cast<std::uint32_t>(properties().get_int("modulo"));
  if (cfg.prescaler == 0 || cfg.modulo == 0) {
    throw std::logic_error("PwmBean: bind() before successful validate()");
  }
  if (properties().get_bool("interrupt")) {
    cfg.reload_vector = register_event(
        ctx, "OnReload",
        static_cast<int>(properties().get_int("interrupt_priority")));
  }
  pwm_ = std::make_unique<periph::PwmPeripheral>(ctx.mcu, cfg, name());
  pwm_->set_duty_ratio(properties().get_real("initial_duty_percent") / 100.0);
  mark_bound();
}

void PwmBean::SetRatio16(std::uint16_t ratio) {
  if (pwm_) pwm_->set_duty_ratio(static_cast<double>(ratio) / 65535.0);
}

void PwmBean::SetDutyPercent(double percent) {
  if (pwm_) pwm_->set_duty_ratio(percent / 100.0);
}

void PwmBean::Enable() {
  if (pwm_) pwm_->start();
}

void PwmBean::Disable() {
  if (pwm_) pwm_->stop();
}

DriverSource PwmBean::driver_source() const {
  DriverSource out;
  out.header_name = name() + ".h";
  out.source_name = name() + ".c";
  out.header = driver_header_prologue() + driver_method_decls() +
               "\n#endif /* __" + name() + "_H */\n";
  std::string c = "#include \"" + name() + ".h\"\n\n";
  c += util::format(
      "/* prescaler %lld, modulo %lld -> %.1f Hz, %lld-bit duty */\n",
      static_cast<long long>(properties().get_int("prescaler")),
      static_cast<long long>(properties().get_int("modulo")),
      properties().get_real("achieved_frequency_hz"),
      static_cast<long long>(properties().get_int("duty_resolution_bits")));
  if (method_enabled("SetRatio16")) {
    c += "byte " + name() +
         "_SetRatio16(word Ratio) {\n"
         "  PWM_VAL = (word)(((dword)Ratio * PWM_MOD) >> 16);\n"
         "  return ERR_OK;\n}\n";
  }
  if (method_enabled("Enable")) {
    c += "byte " + name() + "_Enable(void) { PWM_CTRL |= PWM_RUN; return ERR_OK; }\n";
  }
  if (method_enabled("Disable")) {
    c += "byte " + name() + "_Disable(void) { PWM_CTRL &= ~PWM_RUN; return ERR_OK; }\n";
  }
  out.source = c;
  return out;
}

}  // namespace iecd::beans
