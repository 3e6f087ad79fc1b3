/// \file adc.hpp
/// Successive-approximation ADC model.  Conversion takes a real amount of
/// time (sample clocks at the ADC clock); the analog input is sampled at
/// conversion *start* (sample-and-hold), the digital result and the
/// end-of-conversion interrupt appear when the conversion completes.  The
/// result has genuine N-bit resolution — the property the paper stresses:
/// the ADC block "really provides the controller model with values with
/// the 12 bits resolution".
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "periph/peripheral.hpp"

namespace iecd::periph {

struct AdcConfig {
  int resolution_bits = 12;
  int channels = 4;
  double vref_low = 0.0;
  double vref_high = 3.3;
  sim::SimTime conversion_time = sim::microseconds(2);
  mcu::IrqVector eoc_vector = -1;  ///< <0: no end-of-conversion interrupt
  bool continuous = false;         ///< restart automatically after EOC
};

class AdcPeripheral : public Peripheral {
 public:
  AdcPeripheral(mcu::Mcu& mcu, AdcConfig config, std::string name = "adc");

  const AdcConfig& config() const { return config_; }

  /// Binds the voltage source for a channel (sampled lazily at conversion
  /// start).  Unbound channels read vref_low.
  void set_analog_source(int channel, std::function<double(sim::SimTime)> fn);

  /// Starts a single conversion on \p channel.  Returns false if a
  /// conversion is already in progress (hardware would ignore the request).
  bool start_conversion(int channel);

  bool busy() const { return busy_; }

  /// Synchronous (busy-wait) conversion: samples the channel's source now
  /// and returns the code immediately.  The caller is responsible for
  /// charging the conversion time as CPU busy-wait cycles — this is what
  /// the generated Measure(WaitForResult=TRUE) path does.
  std::uint32_t sample_now(int channel);

  /// Last completed result for \p channel (raw code, right-justified).
  std::uint32_t result(int channel) const;

  /// Converts a raw code back to volts (for tests/instrumentation).
  double code_to_volts(std::uint32_t code) const;
  /// Quantizes a voltage the way the converter would.
  std::uint32_t volts_to_code(double volts) const;

  std::uint32_t max_code() const {
    return (std::uint32_t{1} << config_.resolution_bits) - 1;
  }

  std::uint64_t conversions_completed() const { return completed_; }

  /// Fault-injection hook (see src/fault/): transforms the converted code
  /// before it is latched — stuck-at bits, reference noise, a flaky input
  /// mux.  Applied on both the interrupt-driven and the busy-wait
  /// (sample_now) paths; null (the default) or an identity hook leaves
  /// results bit-identical.
  using CodeFaultHook =
      std::function<std::uint32_t(int channel, std::uint32_t code)>;
  void set_code_fault_hook(CodeFaultHook hook) { fault_hook_ = std::move(hook); }

 private:
  void finish_conversion(int channel, double sampled_volts);
  std::uint32_t apply_fault(int channel, std::uint32_t code) {
    return fault_hook_ ? fault_hook_(channel, code) : code;
  }

  AdcConfig config_;
  CodeFaultHook fault_hook_;
  std::vector<std::function<double(sim::SimTime)>> sources_;
  std::vector<std::uint32_t> results_;
  bool busy_ = false;
  std::uint64_t completed_ = 0;
};

}  // namespace iecd::periph
