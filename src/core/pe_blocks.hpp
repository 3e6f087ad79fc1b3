/// \file pe_blocks.hpp
/// The PE block set — the paper's central artifact.  Each block in the
/// Simulink-side model corresponds to a bean in the PE project and behaves
/// three ways (see codegen::IoMode):
///  * MIL: the block SIMULATES the peripheral — an ADC block really
///    quantizes to the converter's resolution, a PWM block limits duty to
///    the counter's granularity — so the closed-loop simulation already
///    reflects the main hardware features (paper Section 5);
///  * target: the block talks to its bean (the generated-code behaviour,
///    also exercised in HIL);
///  * PIL: reads/writes are redirected to the communication buffer.
/// Peripheral events surface as function-call event sources that can
/// trigger subsystems both in simulation and in the generated application.
#pragma once

#include <map>

#include "beans/adc_bean.hpp"
#include "beans/bit_io_bean.hpp"
#include "beans/pwm_bean.hpp"
#include "beans/quad_dec_bean.hpp"
#include "beans/timer_int_bean.hpp"
#include "codegen/signal_buffer.hpp"
#include "codegen/target_io.hpp"
#include "model/block.hpp"
#include "model/subsystem.hpp"

namespace iecd::core {

using codegen::IoDirection;
using codegen::IoMode;

/// Common PE block machinery: bean back-reference, mode, PIL buffer and
/// event sources/bindings.  Each PE block's initialize() caches the bean
/// properties and event sources its per-step paths read; its constructor
/// calls it once, so a block driven by hand sees the properties it was
/// created with.
class PeBlock : public model::Block, public codegen::TargetIo {
 public:
  PeBlock(std::string name, int inputs, int outputs, beans::Bean& bean);

  void set_mode(IoMode mode) override { mode_ = mode; }
  IoMode mode() const override { return mode_; }
  void set_pil_buffer(codegen::SignalBuffer* buffer) override {
    pil_ = buffer;
  }
  std::string bean_name() const override { return bean_->name(); }

  /// The MIL-side event source for one of the bean's events.
  model::EventSource& event(const std::string& event_name);

  /// Wires a bean event to a function-call subsystem: attaches the MIL
  /// event source AND records the binding for the code generator.
  void bind_event(const std::string& event_name,
                  model::FunctionCallSubsystem& target);

  std::vector<EventBinding> event_bindings() const override {
    return bindings_;
  }

  beans::Bean& bean() { return *bean_; }

  /// MIL hardware fidelity (default on).  Off = the "trivial
  /// (pass-through)" simulation behaviour the paper criticizes in other
  /// targets: no quantization, no wrapping, no duty granularity.  Exists
  /// for the ablation experiments; target/PIL behaviour is unaffected.
  void set_hw_fidelity(bool fidelity) {
    hw_fidelity_ = fidelity;
    on_fidelity_changed();
  }
  bool hw_fidelity() const { return hw_fidelity_; }

 protected:
  /// Lets port types follow the fidelity switch (ideal blocks are double).
  virtual void on_fidelity_changed() {}

  double pil_input() const;
  void pil_output(double value) const;

  beans::Bean* bean_;
  IoMode mode_ = IoMode::kMil;
  bool hw_fidelity_ = true;
  codegen::SignalBuffer* pil_ = nullptr;
  std::map<std::string, model::EventSource> events_;
  std::vector<EventBinding> bindings_;
};

/// ADC block: in0 = analog voltage (plant), out0 = converted code,
/// left-justified to 16 bits (uint16), at the converter's true resolution.
class AdcPeBlock : public PeBlock {
 public:
  AdcPeBlock(std::string name, beans::AdcBean& bean);
  const char* type_name() const override { return "PE_ADC"; }
  IoDirection io_direction() const override { return IoDirection::kInput; }

  void initialize(const model::SimContext& ctx) override;
  void output(const model::SimContext& ctx) override;
  void target_init(const model::SimContext&) override {}
  void target_read(const model::SimContext& ctx) override;
  void target_write(const model::SimContext&) override {}
  mcu::OpCounts io_ops() const override;
  std::uint64_t extra_cycles(const mcu::DerivativeSpec& cpu) const override;
  std::vector<std::string> required_methods() const override;
  std::string emit_target_c(bool pil, const std::string& var) const override;

  /// Quantization the converter applies (shared MIL / PIL path) at
  /// \p bits resolution against \p vref.
  static std::uint16_t quantize_volts(double volts, int bits, double vref);

 protected:
  void on_fidelity_changed() override {
    set_output_type(0, hw_fidelity_ ? model::DataType::kUint16
                                    : model::DataType::kDouble);
  }

 private:
  beans::AdcBean* adc_;
  std::uint16_t latched_ = 0;
  int bits_ = 0;
  double vref_ = 0.0;
  model::EventSource* on_end_ = nullptr;
};

/// PWM block: in0 = duty ratio [0,1]; MIL out0 = duty quantized to the
/// counter granularity (what the motor really sees).
class PwmPeBlock : public PeBlock {
 public:
  PwmPeBlock(std::string name, beans::PwmBean& bean);
  const char* type_name() const override { return "PE_PWM"; }
  IoDirection io_direction() const override { return IoDirection::kOutput; }

  void initialize(const model::SimContext& ctx) override;
  void output(const model::SimContext& ctx) override;
  void target_init(const model::SimContext& ctx) override;
  void target_read(const model::SimContext&) override {}
  void target_write(const model::SimContext& ctx) override;
  mcu::OpCounts io_ops() const override;
  std::vector<std::string> required_methods() const override;
  std::string emit_target_c(bool pil, const std::string& var) const override;

 private:
  beans::PwmBean* pwm_;
  std::int64_t modulo_ = 0;
};

/// Quadrature decoder block: in0 = shaft angle [rad]; out0 = int16
/// position register (wraps exactly like the hardware).
class QuadDecPeBlock : public PeBlock {
 public:
  QuadDecPeBlock(std::string name, beans::QuadDecBean& bean);
  const char* type_name() const override { return "PE_QuadDec"; }
  IoDirection io_direction() const override { return IoDirection::kInput; }

  void initialize(const model::SimContext& ctx) override;
  void output(const model::SimContext& ctx) override;
  void target_init(const model::SimContext&) override {}
  void target_read(const model::SimContext& ctx) override;
  void target_write(const model::SimContext&) override {}
  mcu::OpCounts io_ops() const override;
  std::vector<std::string> required_methods() const override;
  std::string emit_target_c(bool pil, const std::string& var) const override;

 protected:
  void on_fidelity_changed() override {
    set_output_type(0, hw_fidelity_ ? model::DataType::kInt16
                                    : model::DataType::kDouble);
  }

 private:
  beans::QuadDecBean* qdec_;
  std::int16_t latched_ = 0;
  double cpr_ = 0.0;  ///< counts per revolution
};

/// Single-pin digital I/O block.  Direction follows the bean's property:
/// inputs have out0 = level (bool) and raise OnInterrupt on configured
/// edges (also simulated in MIL); outputs take in0 and drive the pin.
class BitIoPeBlock : public PeBlock {
 public:
  BitIoPeBlock(std::string name, beans::BitIoBean& bean);
  const char* type_name() const override { return "PE_BitIO"; }
  IoDirection io_direction() const override;

  void initialize(const model::SimContext& ctx) override;
  void output(const model::SimContext& ctx) override;
  void target_init(const model::SimContext&) override {}
  void target_read(const model::SimContext& ctx) override;
  void target_write(const model::SimContext& ctx) override;
  mcu::OpCounts io_ops() const override;
  std::vector<std::string> required_methods() const override;
  std::string emit_target_c(bool pil, const std::string& var) const override;

 private:
  /// The bean's direction now; is_output_ is the copy initialize() took.
  bool is_output() const;

  beans::BitIoBean* bit_;
  bool latched_ = false;
  bool prev_in_ = false;
  bool is_output_ = false;
  bool fire_rising_ = false;
  bool fire_falling_ = false;
  model::EventSource* on_interrupt_ = nullptr;
};

/// Periodic-interrupt block: declares the model's sample-rate source and
/// carries the OnInterrupt event (fires each sample hit in MIL).  Must be
/// present in every controller subsystem — the paper: "the controller
/// subsystem must contain the Processor Expert block".
class TimerIntPeBlock : public PeBlock {
 public:
  TimerIntPeBlock(std::string name, beans::TimerIntBean& bean);
  const char* type_name() const override { return "PE_TimerInt"; }
  IoDirection io_direction() const override { return IoDirection::kEvent; }

  void initialize(const model::SimContext& ctx) override;
  void output(const model::SimContext& ctx) override;
  void target_init(const model::SimContext& ctx) override;
  void target_read(const model::SimContext&) override {}
  void target_write(const model::SimContext&) override {}
  mcu::OpCounts io_ops() const override { return {}; }
  std::vector<std::string> required_methods() const override;
  std::string emit_target_c(bool pil, const std::string& var) const override;

 private:
  beans::TimerIntBean* timer_;
  model::EventSource* on_interrupt_ = nullptr;
};

}  // namespace iecd::core
