#include "periph/adc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace iecd::periph {

AdcPeripheral::AdcPeripheral(mcu::Mcu& mcu, AdcConfig config, std::string name)
    : Peripheral(mcu, std::move(name)),
      config_(config),
      sources_(static_cast<std::size_t>(config.channels)),
      results_(static_cast<std::size_t>(config.channels), 0) {
  if (config.resolution_bits < 1 || config.resolution_bits > 16) {
    throw std::invalid_argument("AdcPeripheral: resolution 1..16 bits");
  }
  if (config.channels < 1) {
    throw std::invalid_argument("AdcPeripheral: needs >= 1 channel");
  }
  if (!(config.vref_high > config.vref_low)) {
    throw std::invalid_argument("AdcPeripheral: vref_high <= vref_low");
  }
}

void AdcPeripheral::set_analog_source(
    int channel, std::function<double(sim::SimTime)> fn) {
  sources_.at(static_cast<std::size_t>(channel)) = std::move(fn);
}

std::uint32_t AdcPeripheral::volts_to_code(double volts) const {
  const double span = config_.vref_high - config_.vref_low;
  const double norm = (volts - config_.vref_low) / span;
  const double scaled = norm * static_cast<double>(max_code());
  const double clamped =
      std::clamp(scaled, 0.0, static_cast<double>(max_code()));
  return static_cast<std::uint32_t>(std::lround(clamped));
}

double AdcPeripheral::code_to_volts(std::uint32_t code) const {
  const double span = config_.vref_high - config_.vref_low;
  return config_.vref_low +
         span * static_cast<double>(code) / static_cast<double>(max_code());
}

bool AdcPeripheral::start_conversion(int channel) {
  if (busy_) return false;
  if (channel < 0 || channel >= config_.channels) {
    throw std::out_of_range("AdcPeripheral: channel out of range");
  }
  busy_ = true;
  // Sample-and-hold: the analog value is captured at conversion start.
  const auto& src = sources_[static_cast<std::size_t>(channel)];
  const double volts = src ? src(now()) : config_.vref_low;
  queue().schedule_in(config_.conversion_time,
                      [this, channel, volts] { finish_conversion(channel, volts); });
  return true;
}

void AdcPeripheral::finish_conversion(int channel, double sampled_volts) {
  results_[static_cast<std::size_t>(channel)] =
      apply_fault(channel, volts_to_code(sampled_volts));
  busy_ = false;
  ++completed_;
  if (config_.eoc_vector >= 0) mcu().raise_irq(config_.eoc_vector);
  if (config_.continuous) start_conversion(channel);
}

std::uint32_t AdcPeripheral::sample_now(int channel) {
  if (channel < 0 || channel >= config_.channels) {
    throw std::out_of_range("AdcPeripheral: channel out of range");
  }
  const auto& src = sources_[static_cast<std::size_t>(channel)];
  const double volts = src ? src(now()) : config_.vref_low;
  results_[static_cast<std::size_t>(channel)] =
      apply_fault(channel, volts_to_code(volts));
  ++completed_;
  return results_[static_cast<std::size_t>(channel)];
}

std::uint32_t AdcPeripheral::result(int channel) const {
  return results_.at(static_cast<std::size_t>(channel));
}

}  // namespace iecd::periph
