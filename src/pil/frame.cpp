#include "pil/frame.hpp"

#include <array>
#include <cstring>

#include "util/crc16.hpp"

namespace iecd::pil {

void encode_frame_into(FrameType type, std::uint8_t seq,
                       std::span<const std::uint8_t> payload,
                       std::vector<std::uint8_t>& out) {
  const std::size_t base = out.size();
  out.reserve(base + payload.size() + 6);
  out.push_back(kSyncByte);
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(seq);
  out.push_back(static_cast<std::uint8_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  // CRC over type..payload.
  const std::uint16_t crc = util::crc16_ccitt(std::span<const std::uint8_t>(
      out.data() + base + 1, out.size() - base - 1));
  out.push_back(static_cast<std::uint8_t>(crc >> 8));
  out.push_back(static_cast<std::uint8_t>(crc & 0xFF));
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  encode_frame_into(frame.type, frame.seq, frame.payload, out);
  return out;
}

void encode_signals_into(std::span<const double> values,
                         std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + values.size() * 4);
  for (double v : values) {
    const float f = static_cast<float>(v);
    std::uint8_t bytes[4];
    std::memcpy(bytes, &f, 4);
    out.insert(out.end(), bytes, bytes + 4);
  }
}

std::vector<std::uint8_t> encode_signals(const std::vector<double>& values) {
  std::vector<std::uint8_t> out;
  encode_signals_into(values, out);
  return out;
}

void decode_signals_into(std::span<const std::uint8_t> payload,
                         std::vector<double>& out) {
  out.reserve(out.size() + payload.size() / 4);
  for (std::size_t i = 0; i + 4 <= payload.size(); i += 4) {
    float f;
    std::memcpy(&f, payload.data() + i, 4);
    out.push_back(static_cast<double>(f));
  }
}

std::vector<double> decode_signals(const std::vector<std::uint8_t>& payload) {
  std::vector<double> out;
  decode_signals_into(payload, out);
  return out;
}

FrameDecoder::FrameDecoder() { current_.payload.reserve(256); }

void FrameDecoder::set_callback(std::function<void(const Frame&)> on_frame) {
  on_frame_ = std::move(on_frame);
}

void FrameDecoder::reset_frame() {
  state_ = State::kSync;
  current_.payload.clear();  // keeps capacity: no churn between frames
  expected_len_ = 0;
  run_crc_ = 0xFFFF;
  raw_size_ = 0;
}

bool FrameDecoder::feed(std::uint8_t byte) { return feed_one(byte) > 0; }

std::size_t FrameDecoder::feed(std::span<const std::uint8_t> data) {
  std::size_t completed = 0;
  for (std::uint8_t b : data) completed += feed_one(b);
  return completed;
}

std::size_t FrameDecoder::feed_burst(std::span<const std::uint8_t> data,
                                     sim::SimTime first_done,
                                     sim::SimTime byte_time) {
  std::size_t completed = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    cursor_time_ = first_done + byte_time * static_cast<sim::SimTime>(i);
    completed += feed_one(data[i]);
  }
  return completed;
}

std::size_t FrameDecoder::feed_one(std::uint8_t byte) {
  if (raw_size_ < kMaxRaw) raw_[raw_size_++] = byte;
  switch (state_) {
    case State::kSync:
      if (byte == kSyncByte) {
        state_ = State::kType;
      } else {
        raw_size_ = 0;  // bytes before sync can never start a frame
      }
      return 0;
    case State::kType:
      current_.type = static_cast<FrameType>(byte);
      run_crc_ = util::crc16_ccitt_update(run_crc_, byte);
      state_ = State::kSeq;
      return 0;
    case State::kSeq:
      current_.seq = byte;
      run_crc_ = util::crc16_ccitt_update(run_crc_, byte);
      state_ = State::kLen;
      return 0;
    case State::kLen:
      expected_len_ = byte;
      run_crc_ = util::crc16_ccitt_update(run_crc_, byte);
      current_.payload.clear();
      state_ = expected_len_ ? State::kPayload : State::kCrcHi;
      return 0;
    case State::kPayload:
      current_.payload.push_back(byte);
      run_crc_ = util::crc16_ccitt_update(run_crc_, byte);
      if (current_.payload.size() == expected_len_) state_ = State::kCrcHi;
      return 0;
    case State::kCrcHi:
      rx_crc_ = static_cast<std::uint16_t>(byte << 8);
      state_ = State::kCrcLo;
      return 0;
    case State::kCrcLo: {
      rx_crc_ = static_cast<std::uint16_t>(rx_crc_ | byte);
      if (run_crc_ == rx_crc_) {
        ++frames_ok_;
        last_frame_time_ = cursor_time_;
        if (on_frame_) on_frame_(current_);
        reset_frame();
        return 1;
      }
      ++crc_errors_;
      // Resynchronize: a real frame may start inside the bytes the failed
      // attempt swallowed.  Replay everything after the leading sync byte;
      // nested failures replay strict suffixes, so this terminates.
      std::array<std::uint8_t, kMaxRaw> replay;
      const std::size_t n = raw_size_ > 0 ? raw_size_ - 1 : 0;
      std::memcpy(replay.data(), raw_ + 1, n);
      reset_frame();
      std::size_t completed = 1;
      for (std::size_t i = 0; i < n; ++i) completed += feed_one(replay[i]);
      return completed;
    }
  }
  return 0;
}

}  // namespace iecd::pil
