/// \file quadrature_decoder.hpp
/// Quadrature decoder peripheral: counts edges of the two phase-shifted
/// encoder signals (4x decoding — every edge of A and B counts) with
/// direction, plus an index-pulse input that can latch or clear the
/// position register.  The case-study feedback path: IRC encoder with 100
/// lines -> 400 counts per revolution.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <numbers>

#include "periph/peripheral.hpp"

namespace iecd::periph {

/// The count a shaft at \p angle_rad shows with \p cpr counts per
/// revolution, unwrapped: the angle floored to whole counts.  A non-finite
/// angle, or one beyond int64's range in counts, reads 0 instead of
/// reaching an undefined conversion.
inline std::int64_t angle_to_extended_counts(double angle_rad, double cpr) {
  const double counts =
      std::floor(angle_rad / (2.0 * std::numbers::pi) * cpr);
  const bool in_range = counts >= -9.2e18 && counts <= 9.2e18;
  return in_range ? static_cast<std::int64_t>(counts) : 0;
}

/// \p counts wrapped to 16 bits like the hardware position register.
inline std::int16_t wrap_counts(std::int64_t counts) {
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(counts & 0xFFFF));
}

/// The position register of a shaft at \p angle_rad.  The MIL and PIL
/// decoder block, every batch lane and the event-world encoder count
/// through these functions.
inline std::int16_t angle_to_counts(double angle_rad, double cpr) {
  return wrap_counts(angle_to_extended_counts(angle_rad, cpr));
}

/// Counts the register advanced from \p prev to \p now: the difference
/// wrapped into [-32768, 32768] as 16-bit register arithmetic reads it, so
/// a position that wraps between two samples reads as the short way
/// round.  The case-study speed estimate (cnt_diff) and batch::SpeedPi
/// both take it.
inline double count_delta(double now, double prev) {
  return std::remainder(now - prev, 65536.0);
}

struct QuadDecConfig {
  bool clear_on_index = false;      ///< reset position at the index pulse
  mcu::IrqVector index_vector = -1; ///< <0: no index interrupt
};

class QuadDecPeripheral : public Peripheral {
 public:
  QuadDecPeripheral(mcu::Mcu& mcu, QuadDecConfig config,
                    std::string name = "qdec");

  const QuadDecConfig& config() const { return config_; }

  /// Index (once-per-revolution) pulse: latches the position register,
  /// clears it when configured, and raises the index interrupt if any.
  void index_pulse();

  /// \p pulses index pulses at once, for a decoder that does not act on
  /// them: counts them and latches the position at the input \p input.
  void count_index(std::uint64_t pulses, std::int64_t input);

  /// The decoder's input: the encoder's count function
  /// (plant::IncrementalEncoder installs it), called before every register
  /// read, zero() and index pulse.  It returns the decoded edge count now
  /// (+1 per forward edge, -1 per reverse edge), and the registers follow
  /// it.  Null clears it; the input then holds its last value.
  void set_read_hook(std::function<std::int64_t()> hook) {
    read_hook_ = std::move(hook);
  }

  /// Signed position register (16-bit wrap-around, like the hardware).
  std::int16_t position() const {
    sync();
    return wrap_counts(input_ - position_base_);
  }

  /// Full-resolution software-extended position (no wrap).
  std::int64_t extended_position() const {
    sync();
    return input_ - extended_base_;
  }

  /// Position latched at the last index pulse.
  std::int16_t index_latch() const { return index_latch_; }

  std::uint64_t index_pulses() const { return index_pulses_; }

  void zero();

 private:
  void sync() const {
    if (read_hook_) input_ = read_hook_();
  }

  QuadDecConfig config_;
  std::function<std::int64_t()> read_hook_;
  mutable std::int64_t input_ = 0;  ///< edges decoded since the start
  std::int64_t position_base_ = 0;  ///< input at the last clear
  std::int64_t extended_base_ = 0;  ///< input at the last zero()
  std::int16_t index_latch_ = 0;
  std::uint64_t index_pulses_ = 0;
};

}  // namespace iecd::periph
