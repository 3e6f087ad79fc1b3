/// \file quad_dec_bean.hpp
/// Quadrature decoder bean — the IRC encoder feedback path of the servo
/// case study.  Not every derivative has a decoder module; validation
/// catches a port to a part without one *before* any code is generated.
#pragma once

#include <memory>

#include "beans/bean.hpp"
#include "periph/quadrature_decoder.hpp"

namespace iecd::beans {

class QuadDecBean : public Bean {
 public:
  explicit QuadDecBean(std::string name = "QD1");

  std::vector<MethodSpec> methods() const override;
  std::vector<EventSpec> events() const override;
  ResourceDemand demand() const override;
  void validate(const mcu::DerivativeSpec& cpu,
                util::DiagnosticList& diagnostics) override;
  void bind(BindContext& ctx) override;
  DriverSource driver_source() const override;

  // --- Runtime methods ---
  std::int16_t GetPosition() const;
  void ResetPosition();

  /// Encoder counts per mechanical revolution (lines * 4).
  int counts_per_rev() const {
    return static_cast<int>(properties().get_int("encoder_lines")) * 4;
  }

  periph::QuadDecPeripheral* peripheral() { return qdec_.get(); }

 private:
  std::unique_ptr<periph::QuadDecPeripheral> qdec_;
};

}  // namespace iecd::beans
