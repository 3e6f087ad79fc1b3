#include "beans/quad_dec_bean.hpp"

#include "util/strings.hpp"

namespace iecd::beans {

QuadDecBean::QuadDecBean(std::string name) : Bean(std::move(name), "QuadDec") {
  properties().declare(PropertySpec::integer(
      "encoder_lines", 100, 1, 100000,
      "encoder lines per revolution (counts = 4x)"));
  properties().declare(PropertySpec::boolean(
      "clear_on_index", false, "zero the position at the index pulse"));
  properties().declare(PropertySpec::boolean(
      "index_interrupt", false, "raise OnIndex at the index pulse"));
  properties().declare(PropertySpec::integer(
      "interrupt_priority", 5, 0, 15, "OnIndex priority"));
}

std::vector<MethodSpec> QuadDecBean::methods() const {
  return {
      {"GetPosition", "byte %M_GetPosition(int *Position)",
       "read the 16-bit position register"},
      {"ResetPosition", "byte %M_ResetPosition(void)", "zero the position"},
  };
}

std::vector<EventSpec> QuadDecBean::events() const {
  return {{"OnIndex", "index (revolution) pulse"}};
}

ResourceDemand QuadDecBean::demand() const {
  ResourceDemand d;
  d.quadrature_decoders = 1;
  return d;
}

void QuadDecBean::validate(const mcu::DerivativeSpec& cpu,
                           util::DiagnosticList& diagnostics) {
  if (cpu.quadrature_decoders <= 0) {
    diagnostics.error(
        name(),
        util::format("%s has no quadrature decoder module; use software "
                     "decoding on timer inputs or select another derivative",
                     cpu.name.c_str()));
  }
}

void QuadDecBean::bind(BindContext& ctx) {
  periph::QuadDecConfig cfg;
  cfg.clear_on_index = properties().get_bool("clear_on_index");
  if (properties().get_bool("index_interrupt")) {
    cfg.index_vector = register_event(
        ctx, "OnIndex",
        static_cast<int>(properties().get_int("interrupt_priority")));
  }
  qdec_ = std::make_unique<periph::QuadDecPeripheral>(ctx.mcu, cfg, name());
  mark_bound();
}

std::int16_t QuadDecBean::GetPosition() const {
  return qdec_ ? qdec_->position() : 0;
}

void QuadDecBean::ResetPosition() {
  if (qdec_) qdec_->zero();
}

DriverSource QuadDecBean::driver_source() const {
  DriverSource out;
  out.header_name = name() + ".h";
  out.source_name = name() + ".c";
  out.header = driver_header_prologue() + driver_method_decls() +
               "\n#endif /* __" + name() + "_H */\n";
  std::string c = "#include \"" + name() + ".h\"\n\n";
  if (method_enabled("GetPosition")) {
    c += "byte " + name() +
         "_GetPosition(int *Position) {\n"
         "  *Position = (int)QDEC_POSD;\n  return ERR_OK;\n}\n";
  }
  if (method_enabled("ResetPosition")) {
    c += "byte " + name() +
         "_ResetPosition(void) { QDEC_POSD = 0; return ERR_OK; }\n";
  }
  out.source = c;
  return out;
}

}  // namespace iecd::beans
