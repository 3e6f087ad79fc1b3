/// \file derivative.hpp
/// MCU derivative descriptions.  Processor Expert's key selling point in
/// the paper is that the application model is MCU-independent: porting is
/// "selecting another CPU bean in the PE project window".  A derivative
/// spec captures everything the expert system and the simulator need to
/// retarget: clock, instruction costs, memory, peripheral resource counts
/// and timing constraints.  The concrete entries are analogs of the
/// families the paper names (Freescale DSC/HCS12/ColdFire/HCS08).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mcu/cost_model.hpp"

namespace iecd::mcu {

/// Flash and RAM of a derivative; codegen's MemoryEstimate is checked
/// against it (the PIL phase's "memory and stack requirements").
struct MemoryCapacity {
  std::uint32_t flash_bytes = 0;
  std::uint32_t ram_bytes = 0;
};

struct DerivativeSpec {
  std::string name;
  double clock_hz = 0;
  int native_word_bits = 16;
  bool has_fpu = false;
  CostModel costs;
  MemoryCapacity memory;

  // Peripheral resources the expert system allocates.
  int adc_channels = 0;
  int adc_max_bits = 12;
  double adc_clock_hz = 0;          ///< conversion clock
  double adc_cycles_per_sample = 0; ///< conversion length in ADC clocks
  int pwm_channels = 0;
  std::uint32_t pwm_counter_bits = 16;
  int timer_channels = 0;
  std::uint32_t timer_modulo_bits = 16;
  std::vector<std::uint32_t> timer_prescalers;  ///< shared prescaler choices
  int quadrature_decoders = 0;
  int uarts = 0;
  std::vector<std::uint32_t> uart_bauds;  ///< supported standard rates
  int gpio_pins = 0;

  std::uint32_t max_irq_priorities = 7;
};

/// All derivatives this build knows about.
const std::vector<DerivativeSpec>& derivative_registry();

/// Looks a derivative up by name; throws std::invalid_argument if unknown.
const DerivativeSpec& find_derivative(const std::string& name);

/// The case-study part: 16-bit hybrid DSC at 60 MHz, no FPU (MC56F8367
/// analog).
inline const char* kDefaultDerivative = "DSC56F8367";

}  // namespace iecd::mcu
