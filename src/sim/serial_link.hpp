/// \file serial_link.hpp
/// Byte-timed asynchronous serial line (the RS232 connection of Fig. 6.2).
/// Each byte is an 8N1 frame — start bit, 8 data bits, no parity, one stop
/// bit: 10 bits at the configured baud rate (8 clocks on a synchronous,
/// SPI-style line); transmission is serialized per direction (a UART
/// cannot start the next byte before the previous one left the shift
/// register).
///
/// Two delivery modes, chosen by which receiver the endpoint installs:
///
///  - per-byte (set_receiver): every byte is delivered by its own event at
///    its bit-accurate completion time.  Required when the receiver is an
///    MCU peripheral, because each byte raises an interrupt and the ISR
///    serialization between bytes is part of the timing model.  A whole
///    back-to-back burst still costs only ONE event-queue arm: the channel
///    rides a single recurring event whose period is the byte time.
///
///  - whole-burst (set_burst_receiver): one completion event per contiguous
///    burst delivers the buffered bytes as a span together with the first
///    byte's completion time and the byte time, from which every per-byte
///    timestamp is reconstructed analytically (first + k * byte_time — the
///    identical instants the per-byte mode produces).  Right for host-side
///    endpoints that only act on complete frames.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "sim/world.hpp"

namespace iecd::sim {

struct SerialConfig {
  std::uint32_t baud_rate = 115200;  ///< bit clock (SPI: the SCK frequency)
  /// Synchronous (SPI-style) transfer: a clock line replaces start/stop
  /// framing, so a byte costs exactly its 8 data clocks.  The paper's
  /// future-work item — "a support for new communications (e.g. SPI)".
  bool synchronous = false;

  /// Bits on the wire per byte (8N1 async: start + 8 data + stop;
  /// synchronous: the 8 data bits only).
  int bits_per_byte() const { return synchronous ? 8 : 10; }

  /// Wire time of a single byte.
  SimTime byte_time() const;

  static SerialConfig rs232(std::uint32_t baud) {
    SerialConfig cfg;
    cfg.baud_rate = baud;
    return cfg;
  }
  static SerialConfig spi(std::uint32_t clock_hz) {
    SerialConfig cfg;
    cfg.baud_rate = clock_hz;
    cfg.synchronous = true;
    return cfg;
  }
};

/// One direction of a serial line.  Two of these make a full-duplex link.
class SerialChannel {
 public:
  /// Burst receiver: (bytes, completion time of bytes[0], byte time).
  /// Byte k of the span completed at first_done + k * byte_time.
  using BurstCallback =
      std::function<void(std::span<const std::uint8_t>, SimTime, SimTime)>;

  SerialChannel(EventQueue& queue, SerialConfig config, std::string name);

  /// Queues a byte for transmission; it arrives bits_per_byte()/baud later,
  /// after any bytes already in flight.
  void transmit(std::uint8_t byte);

  /// Queues a whole buffer as one contiguous burst.
  void transmit(const std::uint8_t* data, std::size_t len);
  void transmit(std::span<const std::uint8_t> data) {
    transmit(data.data(), data.size());
  }

  /// Receiver callback (byte, arrival_time).  Must be set before traffic.
  void set_receiver(std::function<void(std::uint8_t, SimTime)> on_byte);

  /// Whole-burst receiver: replaces the per-byte callback with one
  /// invocation per contiguous burst.  Per-byte timestamps are recovered
  /// from (first_done, byte_time); they are byte-identical to per-byte mode.
  void set_burst_receiver(BurstCallback on_burst);

  /// Per-byte fault decision, consulted at delivery time for every byte on
  /// the wire (fault-injection campaigns; see src/fault/).
  enum class ByteFaultAction : std::uint8_t {
    kNone,
    kCorrupt,    ///< XOR with xor_mask before delivery
    kDrop,       ///< byte occupies the wire but is never delivered
    kDuplicate,  ///< byte delivered twice (receiver-side glitch echo)
  };
  struct ByteFault {
    ByteFaultAction action = ByteFaultAction::kNone;
    std::uint8_t xor_mask = 0;
  };
  using ByteFaultHook = std::function<ByteFault(std::uint8_t byte)>;

  /// Installs (null: removes) the fault hook.  Without a hook — or with a
  /// hook that always answers kNone — delivery is byte-identical to the
  /// unhooked channel, including burst mode's zero-copy span.  Count-
  /// changing faults (drop/duplicate) in burst mode shift the analytic
  /// per-byte timestamps of the bytes behind them within the burst — the
  /// burst still completes at the same instant.
  void set_fault_hook(ByteFaultHook hook);

  std::uint64_t bytes_corrupted() const { return bytes_corrupted_; }
  std::uint64_t bytes_dropped() const { return bytes_dropped_; }
  std::uint64_t bytes_duplicated() const { return bytes_duplicated_; }

  const std::string& name() const { return name_; }

  const SerialConfig& config() const { return config_; }
  std::uint64_t bytes_transferred() const { return bytes_transferred_; }
  /// Total wire time spent transferring (busy time), for overhead metrics.
  SimTime busy_time() const { return busy_time_; }
  /// Instant the wire finishes everything queued so far (now when idle).
  SimTime wire_free_at() const;

 private:
  SimTime byte_time() const;
  void deliver_tick();
  void deliver_burst();
  void arm_burst_event();
  std::size_t pending() const { return buf_.size() - head_; }
  void maybe_compact();

  EventQueue& queue_;
  SerialConfig config_;
  std::string name_;
  std::function<void(std::uint8_t, SimTime)> on_byte_;
  BurstCallback on_burst_;

  /// TX buffer: bytes [head_, buf_.size()) are still on (or waiting for)
  /// the wire.  Reused across bursts — steady-state traffic allocates
  /// nothing.
  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;

  bool active_ = false;        ///< a delivery event is armed
  EventId event_ = 0;
  SimTime wire_free_at_ = 0;   ///< completion time of the last queued byte
  SimTime burst_t0_ = 0;       ///< shift-start of buf_[head_] (burst mode)
  std::size_t scheduled_ = 0;  ///< bytes the armed burst event will deliver

  mutable SimTime byte_time_cache_ = 0;

  ByteFaultHook fault_hook_;
  /// Lazily-filled scratch for burst faults: allocated only the first time
  /// a fault actually fires inside a burst, so clean traffic keeps the
  /// zero-copy aliasing span.
  std::vector<std::uint8_t> fault_scratch_;
  std::uint64_t bytes_corrupted_ = 0;
  std::uint64_t bytes_dropped_ = 0;
  std::uint64_t bytes_duplicated_ = 0;

  std::uint64_t bytes_transferred_ = 0;
  SimTime busy_time_ = 0;
};

/// Full-duplex point-to-point link: endpoint A <-> endpoint B.
class SerialLink {
 public:
  SerialLink(World& world, SerialConfig config, std::string name = "rs232");

  SerialChannel& a_to_b() { return a_to_b_; }
  SerialChannel& b_to_a() { return b_to_a_; }

  const std::string& name() const { return name_; }

  const SerialConfig& config() const { return config_; }

 private:
  std::string name_;
  SerialConfig config_;
  SerialChannel a_to_b_;
  SerialChannel b_to_a_;
};

}  // namespace iecd::sim
