/// \file frame.hpp
/// The PIL wire protocol: framed packets over the asynchronous serial
/// line.  Layout: 0x7E | type | seq | len | payload[len] | crc16(2, BE).
/// The CRC covers type..payload.  Signal payloads carry float32 LE values
/// (adequate precision for plant/actuator exchange and 2.5x smaller than
/// doubles on a line whose bandwidth dominates the step budget).
///
/// Fast-path API: the *_into functions append into caller-owned scratch
/// buffers, so a session that reuses its buffers encodes and decodes
/// frames without touching the heap after warm-up.  The vector-returning
/// forms remain as convenience wrappers.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/time.hpp"

namespace iecd::pil {

inline constexpr std::uint8_t kSyncByte = 0x7E;

enum class FrameType : std::uint8_t {
  kSensorData = 1,    ///< host -> target: plant outputs
  kActuatorData = 2,  ///< target -> host: controller outputs
};

struct Frame {
  FrameType type = FrameType::kSensorData;
  std::uint8_t seq = 0;
  std::vector<std::uint8_t> payload;
};

/// Serializes a frame (sync, header, payload, CRC).
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Appends the serialized frame to \p out (allocation-free once \p out has
/// capacity).  The caller clears \p out between frames if it wants exactly
/// one frame per buffer.
void encode_frame_into(FrameType type, std::uint8_t seq,
                       std::span<const std::uint8_t> payload,
                       std::vector<std::uint8_t>& out);

/// Packs doubles as float32 LE payload.
std::vector<std::uint8_t> encode_signals(const std::vector<double>& values);
/// Appends the float32 LE encoding of \p values to \p out.
void encode_signals_into(std::span<const double> values,
                         std::vector<std::uint8_t>& out);

/// Unpacks a float32 LE payload.
std::vector<double> decode_signals(const std::vector<std::uint8_t>& payload);
/// Appends the decoded doubles to \p out.
void decode_signals_into(std::span<const std::uint8_t> payload,
                         std::vector<double>& out);

/// Streaming decoder: feed bytes as they arrive; complete, CRC-valid
/// frames invoke the callback.  Corrupted frames are counted and their
/// bytes re-scanned from the next sync byte inside them, so a valid frame
/// is never lost to a preceding corrupted or truncated one (the fuzz test
/// locks this).  The CRC folds incrementally — completion never re-walks
/// the payload — and the payload buffer is reused across frames.
class FrameDecoder {
 public:
  FrameDecoder();

  void set_callback(std::function<void(const Frame&)> on_frame);

  /// Feeds one byte; returns true if a frame completed (valid or not).
  bool feed(std::uint8_t byte);

  /// Feeds a whole buffer; returns the number of completed frames
  /// (valid or not).
  std::size_t feed(std::span<const std::uint8_t> data);

  /// Burst entry point: byte k of \p data arrived at
  /// first_done + k * byte_time.  Tracks arrival instants so
  /// last_frame_time() reports the exact completion time of the most
  /// recent frame — identical to what a per-byte feed at those times
  /// would observe.
  std::size_t feed_burst(std::span<const std::uint8_t> data,
                         sim::SimTime first_done, sim::SimTime byte_time);

  /// Arrival time of the byte that completed the most recent frame
  /// (meaningful after feed_burst; frames recovered by a rescan report
  /// the time of the byte that exposed them).
  sim::SimTime last_frame_time() const { return last_frame_time_; }

  std::uint64_t frames_ok() const { return frames_ok_; }
  std::uint64_t crc_errors() const { return crc_errors_; }

 private:
  enum class State { kSync, kType, kSeq, kLen, kPayload, kCrcHi, kCrcLo };

  /// Max raw frame size: sync + header(3) + payload(255) + crc(2).
  static constexpr std::size_t kMaxRaw = 261;

  std::size_t feed_one(std::uint8_t byte);
  void reset_frame();

  State state_ = State::kSync;
  Frame current_;
  std::size_t expected_len_ = 0;
  std::uint16_t rx_crc_ = 0;
  std::uint16_t run_crc_ = 0xFFFF;  ///< folded incrementally over type..payload
  /// Raw bytes of the in-progress frame, for resynchronization rescans.
  std::uint8_t raw_[kMaxRaw];
  std::size_t raw_size_ = 0;
  sim::SimTime cursor_time_ = 0;
  sim::SimTime last_frame_time_ = 0;
  std::function<void(const Frame&)> on_frame_;
  std::uint64_t frames_ok_ = 0;
  std::uint64_t crc_errors_ = 0;
};

}  // namespace iecd::pil
