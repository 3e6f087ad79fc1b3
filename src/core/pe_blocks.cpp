#include "core/pe_blocks.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "periph/pwm.hpp"
#include "periph/quadrature_decoder.hpp"
#include "util/strings.hpp"

namespace iecd::core {

PeBlock::PeBlock(std::string name, int inputs, int outputs, beans::Bean& bean)
    : Block(std::move(name), inputs, outputs), bean_(&bean) {}

model::EventSource& PeBlock::event(const std::string& event_name) {
  return events_[event_name];
}

void PeBlock::bind_event(const std::string& event_name,
                         model::FunctionCallSubsystem& target) {
  events_[event_name].attach(target);
  bindings_.push_back({event_name, &target});
}

double PeBlock::pil_input() const {
  return pil_ ? pil_->input(name()) : 0.0;
}

void PeBlock::pil_output(double value) const {
  if (pil_) pil_->set_output(name(), value);
}

// ------------------------------------------------------------------ ADC

AdcPeBlock::AdcPeBlock(std::string name, beans::AdcBean& bean)
    : PeBlock(std::move(name), 1, 1, bean), adc_(&bean) {
  set_output_type(0, model::DataType::kUint16);
  initialize({});
}

void AdcPeBlock::initialize(const model::SimContext&) {
  bits_ = static_cast<int>(adc_->properties().get_int("resolution_bits"));
  vref_ = adc_->properties().get_real("vref_high");
  on_end_ = &events_["OnEnd"];
}

std::uint16_t AdcPeBlock::quantize_volts(double volts, int bits,
                                         double vref) {
  const double max_code = std::ldexp(1.0, bits) - 1.0;
  const double code =
      std::clamp(std::round(volts / vref * max_code), 0.0, max_code);
  // Left-justified to 16 bits: application code is resolution-independent.
  return static_cast<std::uint16_t>(static_cast<std::uint32_t>(code)
                                    << (16 - bits));
}

void AdcPeBlock::output(const model::SimContext& ctx) {
  switch (mode_) {
    case IoMode::kMil:
      if (!hw_fidelity_) {
        // Ablation: ideal pass-through scaling, no quantization/clamping.
        set_out(0, in(0) / vref_ * 65535.0);
      } else {
        // Simulate the converter: genuine N-bit resolution and clamping.
        if (!ctx.minor) latched_ = quantize_volts(in(0), bits_, vref_);
        set_out(0, static_cast<double>(latched_));
      }
      if (!ctx.minor) on_end_->fire(ctx);
      break;
    case IoMode::kTarget:
    case IoMode::kPil:
      set_out(0, static_cast<double>(latched_));
      break;
  }
}

void AdcPeBlock::target_read(const model::SimContext& ctx) {
  if (mode_ == IoMode::kPil) {
    // PIL: the value arrives over the communication line (plant units);
    // the conversion quantization still applies.
    latched_ = quantize_volts(pil_input(), bits_, vref_);
    return;
  }
  auto* periph = adc_->peripheral();
  if (periph) {
    const std::uint32_t raw = periph->sample_now(adc_->channel());
    const int shift = 16 - periph->config().resolution_bits;
    latched_ = static_cast<std::uint16_t>(raw << shift);
  }
  (void)ctx;
}

mcu::OpCounts AdcPeBlock::io_ops() const {
  mcu::OpCounts ops;
  ops.mem = 3;
  ops.alu16 = 2;
  ops.branch = 1;
  return ops;
}

std::uint64_t AdcPeBlock::extra_cycles(const mcu::DerivativeSpec& cpu) const {
  // Blocking conversion: the CPU spins for the converter's sample time.
  const double conv_s = cpu.adc_cycles_per_sample / cpu.adc_clock_hz;
  return static_cast<std::uint64_t>(conv_s * cpu.clock_hz);
}

std::vector<std::string> AdcPeBlock::required_methods() const {
  return {"Measure", "GetValue16"};
}

std::string AdcPeBlock::emit_target_c(bool pil, const std::string& var) const {
  if (pil) {
    return util::format("%s = PIL_ReadInput(%s_SLOT);  /* PE %s via comm */\n",
                        var.c_str(), bean_->name().c_str(), name().c_str());
  }
  return util::format(
      "%s_Measure(TRUE);\n%s_GetValue16(&%s);  /* PE %s */\n",
      bean_->name().c_str(), bean_->name().c_str(), var.c_str(),
      name().c_str());
}

// ------------------------------------------------------------------ PWM

PwmPeBlock::PwmPeBlock(std::string name, beans::PwmBean& bean)
    : PeBlock(std::move(name), 1, 1, bean), pwm_(&bean) {
  initialize({});
}

void PwmPeBlock::initialize(const model::SimContext&) {
  modulo_ = pwm_->properties().get_int("modulo");
}

void PwmPeBlock::output(const model::SimContext& ctx) {
  (void)ctx;
  if (mode_ == IoMode::kMil && !hw_fidelity_) {
    set_out(0, in(0));  // ablation: ideal actuator
    return;
  }
  // MIL: the plant sees the duty at the counter's true granularity.
  set_out(0, periph::quantize_duty(in(0), modulo_));
}

void PwmPeBlock::target_init(const model::SimContext&) { pwm_->Enable(); }

void PwmPeBlock::target_write(const model::SimContext&) {
  const double duty = std::clamp(in(0), 0.0, 1.0);
  if (mode_ == IoMode::kPil) {
    pil_output(duty);
    return;
  }
  pwm_->SetRatio16(periph::duty_to_ratio16(duty));
}

mcu::OpCounts PwmPeBlock::io_ops() const {
  mcu::OpCounts ops;
  ops.mul32 = 1;  // 16x16 ratio scaling to the modulo
  ops.alu16 = 2;
  ops.mem = 2;
  return ops;
}

std::vector<std::string> PwmPeBlock::required_methods() const {
  return {"Enable", "SetRatio16"};
}

std::string PwmPeBlock::emit_target_c(bool pil, const std::string& var) const {
  if (pil) {
    return util::format(
        "PIL_WriteOutput(%s_SLOT, %s);  /* PE %s via comm */\n",
        bean_->name().c_str(), var.c_str(), name().c_str());
  }
  return util::format("%s_SetRatio16((word)(%s * 65535U));  /* PE %s */\n",
                      bean_->name().c_str(), var.c_str(), name().c_str());
}

// -------------------------------------------------------------- QuadDec

QuadDecPeBlock::QuadDecPeBlock(std::string name, beans::QuadDecBean& bean)
    : PeBlock(std::move(name), 1, 1, bean), qdec_(&bean) {
  set_output_type(0, model::DataType::kInt16);
  initialize({});
}

void QuadDecPeBlock::initialize(const model::SimContext&) {
  cpr_ = static_cast<double>(qdec_->counts_per_rev());
}

void QuadDecPeBlock::output(const model::SimContext& ctx) {
  switch (mode_) {
    case IoMode::kMil:
      if (!hw_fidelity_) {
        // Ablation: exact fractional counts, no wrap, no quantization.
        set_out(0, in(0) / (2.0 * std::numbers::pi) * cpr_);
        break;
      }
      if (!ctx.minor) latched_ = periph::angle_to_counts(in(0), cpr_);
      set_out(0, static_cast<double>(latched_));
      break;
    case IoMode::kTarget:
    case IoMode::kPil:
      set_out(0, static_cast<double>(latched_));
      break;
  }
}

void QuadDecPeBlock::target_read(const model::SimContext&) {
  if (mode_ == IoMode::kPil) {
    latched_ = periph::angle_to_counts(pil_input(), cpr_);
    return;
  }
  latched_ = qdec_->GetPosition();
}

mcu::OpCounts QuadDecPeBlock::io_ops() const {
  mcu::OpCounts ops;
  ops.mem = 2;
  ops.alu16 = 1;
  return ops;
}

std::vector<std::string> QuadDecPeBlock::required_methods() const {
  return {"GetPosition"};
}

std::string QuadDecPeBlock::emit_target_c(bool pil,
                                          const std::string& var) const {
  if (pil) {
    return util::format("%s = PIL_ReadInput(%s_SLOT);  /* PE %s via comm */\n",
                        var.c_str(), bean_->name().c_str(), name().c_str());
  }
  return util::format("%s_GetPosition((int *)&%s);  /* PE %s */\n",
                      bean_->name().c_str(), var.c_str(), name().c_str());
}

// ---------------------------------------------------------------- BitIO

BitIoPeBlock::BitIoPeBlock(std::string name, beans::BitIoBean& bean)
    : PeBlock(std::move(name), 1, 1, bean), bit_(&bean) {
  set_output_type(0, model::DataType::kBool);
  initialize({});
}

void BitIoPeBlock::initialize(const model::SimContext&) {
  is_output_ = is_output();
  const std::string& edge = bit_->properties().get_string("edge");
  fire_rising_ = edge == "both" || edge == "rising";
  fire_falling_ = edge == "both" || edge == "falling";
  on_interrupt_ = &events_["OnInterrupt"];
}

bool BitIoPeBlock::is_output() const {
  return bit_->properties().get_string("direction") == "output";
}

IoDirection BitIoPeBlock::io_direction() const {
  return is_output() ? IoDirection::kOutput : IoDirection::kInput;
}

void BitIoPeBlock::output(const model::SimContext& ctx) {
  if (is_output_) {
    set_out(0, in_bool(0) ? 1.0 : 0.0);  // echo for scopes
    return;
  }
  switch (mode_) {
    case IoMode::kMil: {
      const bool level = in_bool(0);
      if (!ctx.minor && level != prev_in_) {
        const bool rising = !prev_in_ && level;
        if (rising ? fire_rising_ : fire_falling_) on_interrupt_->fire(ctx);
        prev_in_ = level;
      }
      latched_ = level;
      set_out(0, level ? 1.0 : 0.0);
      break;
    }
    case IoMode::kTarget:
    case IoMode::kPil:
      set_out(0, latched_ ? 1.0 : 0.0);
      break;
  }
}

void BitIoPeBlock::target_read(const model::SimContext&) {
  if (is_output_) return;
  latched_ = mode_ == IoMode::kPil ? (pil_input() != 0.0) : bit_->GetVal();
}

void BitIoPeBlock::target_write(const model::SimContext&) {
  if (!is_output_) return;
  const bool level = in_bool(0);
  if (mode_ == IoMode::kPil) {
    pil_output(level ? 1.0 : 0.0);
    return;
  }
  bit_->PutVal(level);
}

mcu::OpCounts BitIoPeBlock::io_ops() const {
  mcu::OpCounts ops;
  ops.mem = 1;
  ops.alu16 = 1;
  return ops;
}

std::vector<std::string> BitIoPeBlock::required_methods() const {
  return is_output() ? std::vector<std::string>{"PutVal"}
                     : std::vector<std::string>{"GetVal"};
}

std::string BitIoPeBlock::emit_target_c(bool pil,
                                        const std::string& var) const {
  if (pil) {
    if (is_output()) {
      return util::format("PIL_WriteOutput(%s_SLOT, %s);\n",
                          bean_->name().c_str(), var.c_str());
    }
    return util::format("%s = PIL_ReadInput(%s_SLOT);\n", var.c_str(),
                        bean_->name().c_str());
  }
  if (is_output()) {
    return util::format("%s_PutVal(%s);  /* PE %s */\n",
                        bean_->name().c_str(), var.c_str(), name().c_str());
  }
  return util::format("%s = %s_GetVal();  /* PE %s */\n", var.c_str(),
                      bean_->name().c_str(), name().c_str());
}

// ------------------------------------------------------------- TimerInt

TimerIntPeBlock::TimerIntPeBlock(std::string name, beans::TimerIntBean& bean)
    : PeBlock(std::move(name), 0, 0, bean), timer_(&bean) {
  initialize({});
}

void TimerIntPeBlock::initialize(const model::SimContext&) {
  on_interrupt_ = &events_["OnInterrupt"];
}

void TimerIntPeBlock::output(const model::SimContext& ctx) {
  // MIL: the periodic interrupt "fires" at every sample hit of this block.
  if (mode_ == IoMode::kMil && !ctx.minor) on_interrupt_->fire(ctx);
}

void TimerIntPeBlock::target_init(const model::SimContext&) {
  timer_->Enable();
}

std::vector<std::string> TimerIntPeBlock::required_methods() const {
  return {"Enable"};
}

std::string TimerIntPeBlock::emit_target_c(bool,
                                           const std::string&) const {
  return util::format("/* %s: periodic interrupt %s drives the model step */\n",
                      name().c_str(), bean_->name().c_str());
}

}  // namespace iecd::core
