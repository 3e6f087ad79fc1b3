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

/// The position register a shaft at \p angle_rad shows with \p cpr counts
/// per revolution: the angle floored to whole counts and wrapped to 16 bits
/// like the hardware register.  A non-finite angle, or one beyond int64's
/// range in counts, latches 0 instead of reaching an undefined conversion.
/// The MIL and PIL decoder block and every batch lane latch through this
/// one function.
inline std::int16_t angle_to_counts(double angle_rad, double cpr) {
  const double counts =
      std::floor(angle_rad / (2.0 * std::numbers::pi) * cpr);
  std::int64_t wide = 0;
  if (counts >= -9.2e18 && counts <= 9.2e18) {
    wide = static_cast<std::int64_t>(counts);
  }
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(wide & 0xFFFF));
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

  /// Feeds a single decoded edge: +1 forward, -1 reverse.  Called by the
  /// encoder model, edge-by-edge in event-accurate mode.
  void edge(int direction);

  /// Feeds a batch of \p delta counts at once (polled coupling mode used
  /// for high edge rates; see plant::IncrementalEncoder).
  void add_counts(std::int32_t delta);

  /// Index (once-per-revolution) pulse.
  void index_pulse();

  /// Called before every register read and zero(): a lazily sampled
  /// encoder delivers the counts due before now (plant::IncrementalEncoder
  /// installs it).  Null clears it.
  void set_read_hook(std::function<void()> hook) {
    read_hook_ = std::move(hook);
  }

  /// Signed position register (16-bit wrap-around, like the hardware).
  std::int16_t position() const {
    sync();
    return position_;
  }

  /// Full-resolution software-extended position (no wrap).
  std::int64_t extended_position() const {
    sync();
    return extended_;
  }

  /// Position latched at the last index pulse.
  std::int16_t index_latch() const {
    sync();
    return index_latch_;
  }

  std::uint64_t index_pulses() const {
    sync();
    return index_pulses_;
  }

  void zero();

 private:
  void sync() const {
    if (read_hook_) read_hook_();
  }

  QuadDecConfig config_;
  std::function<void()> read_hook_;
  std::int16_t position_ = 0;
  std::int64_t extended_ = 0;
  std::int16_t index_latch_ = 0;
  std::uint64_t index_pulses_ = 0;
};

}  // namespace iecd::periph
