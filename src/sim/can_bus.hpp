/// \file can_bus.hpp
/// CAN bus model for distributed control (the paper's objective is "an
/// integrated development environment for embedded controllers having
/// distributed nature").  Event-driven, arbitration-accurate at frame
/// granularity: when the bus idles, the pending frame with the lowest
/// identifier wins (CSMA/CR), occupies the bus for its wire time, and is
/// then delivered to every other node.  Frame time uses the standard-frame
/// bit count with a conservative stuff-bit estimate, precomputed per DLC.
///
/// Fast-path choices: payloads live inline in the frame (no heap vector for
/// 0..8 data bytes), the in-flight frame is a bus member so the delivery
/// event captures only `this` (the callback stays inside the event queue's
/// small-buffer storage), and every queued frame carries a CRC-16/CCITT
/// integrity word that is verified at delivery — wire corruption (a
/// FrameFaultAction::kCorrupt from the fault hook) drops the frame and
/// counts a CRC error, like a receiving controller discarding a frame with
/// a bad CRC field.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "sim/world.hpp"

namespace iecd::sim {

/// Inline payload buffer: capacity 16 so malformed lengths (dlc > 8) are
/// representable and rejected by the bus, like a driver clipping a bad DLC.
class CanPayload {
 public:
  static constexpr std::size_t kCapacity = 16;

  CanPayload() = default;
  CanPayload(std::initializer_list<std::uint8_t> init) {
    for (std::uint8_t b : init) push_back(b);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }
  void push_back(std::uint8_t b) {
    if (size_ < kCapacity) bytes_[size_++] = b;
  }
  void assign(std::size_t n, std::uint8_t value) {
    size_ = n < kCapacity ? static_cast<std::uint8_t>(n) : kCapacity;
    for (std::size_t i = 0; i < size_; ++i) bytes_[i] = value;
  }

  std::uint8_t& operator[](std::size_t i) { return bytes_[i]; }
  std::uint8_t operator[](std::size_t i) const { return bytes_[i]; }
  std::uint8_t* data() { return bytes_.data(); }
  const std::uint8_t* data() const { return bytes_.data(); }
  const std::uint8_t* begin() const { return bytes_.data(); }
  const std::uint8_t* end() const { return bytes_.data() + size_; }

  operator std::vector<std::uint8_t>() const {
    return std::vector<std::uint8_t>(begin(), end());
  }

 private:
  std::array<std::uint8_t, kCapacity> bytes_{};
  std::uint8_t size_ = 0;
};

struct CanFrame {
  std::uint32_t id = 0;  ///< 11-bit identifier; lower = higher priority
  CanPayload data;       ///< 0..8 bytes

  int dlc() const { return static_cast<int>(data.size()); }
};

class CanBus {
 public:
  struct Stats {
    std::uint64_t frames_delivered = 0;
    std::uint64_t crc_errors = 0;  ///< frames dropped at delivery
    std::uint64_t frames_dropped = 0;     ///< lost on the wire (fault hook)
    std::uint64_t frames_duplicated = 0;  ///< re-queued copies (fault hook)
    SimTime busy_time = 0;
    double utilisation(SimTime elapsed) const {
      return elapsed > 0 ? static_cast<double>(busy_time) /
                               static_cast<double>(elapsed)
                         : 0.0;
    }
  };

  using NodeId = int;
  /// Receive callback: frame + delivery time.
  using RxCallback = std::function<void(const CanFrame&, SimTime)>;

  CanBus(World& world, std::uint32_t bitrate_bps, std::string name = "can");

  const std::string& name() const { return name_; }

  std::uint32_t bitrate() const { return bitrate_; }

  /// Registers a node; every delivered frame reaches all nodes except its
  /// transmitter.
  NodeId attach_node(std::string node_name, RxCallback on_rx);

  /// Queues a frame for transmission from \p node.  Frames per node go out
  /// in FIFO order; across nodes the identifier arbitrates.  Returns false
  /// if the frame is malformed (dlc > 8).
  ///
  /// Arbitration resolution order (deterministic, locked by the CanBus
  /// suite): whenever the wire goes idle, the heads of all non-empty
  /// transmit queues compete and the LOWEST identifier wins; when two
  /// heads carry the SAME identifier, the lowest attach-order node index
  /// wins.  A transmit onto an idle bus seizes the wire immediately
  /// (CSMA — no competing head exists yet), so same-priority contention
  /// only arises between frames queued while the bus was busy.
  bool transmit(NodeId node, CanFrame frame);

  /// Per-frame fault decision, consulted when a frame wins arbitration
  /// (fault-injection campaigns; see src/fault/).
  enum class FrameFaultAction : std::uint8_t {
    kNone,
    kCorrupt,    ///< corrupt payload/CRC -> receivers discard the frame
    kDrop,       ///< frame occupies the bus but never reaches a receiver
    kDuplicate,  ///< a copy re-queues on the sender (retransmit echo)
  };
  struct FrameFault {
    FrameFaultAction action = FrameFaultAction::kNone;
    std::uint8_t xor_mask = 0;
  };
  using FrameFaultHook = std::function<FrameFault(const CanFrame&)>;

  /// Installs (null: removes) the fault hook.  A hook that always answers
  /// kNone leaves bus behaviour bit-identical to the unhooked bus.
  void set_fault_hook(FrameFaultHook hook);

  /// Wire time of one standard frame with \p dlc data bytes (includes a
  /// conservative stuff-bit estimate and the interframe space).
  SimTime frame_time(int dlc) const;

  const Stats& stats() const { return stats_; }
  /// Frames still queued on all nodes (diagnostic).
  std::size_t pending() const;

 private:
  void try_start();
  void deliver();

  struct QueuedFrame {
    CanFrame frame;
    std::uint16_t crc = 0;  ///< integrity word stamped at transmit
  };

  struct Node {
    std::string name;
    RxCallback on_rx;
    std::deque<QueuedFrame> tx_queue;
  };

  World& world_;
  std::string name_;
  std::uint32_t bitrate_;
  std::vector<Node> nodes_;
  bool busy_ = false;
  /// The frame occupying the wire: kept in members so the delivery event
  /// only captures `this` (no heap spill per frame).
  QueuedFrame in_flight_;
  int in_flight_winner_ = -1;
  SimTime in_flight_started_ = 0;
  std::array<SimTime, 9> frame_times_{};
  FrameFaultHook fault_hook_;
  bool in_flight_dropped_ = false;
  Stats stats_;
};

}  // namespace iecd::sim
