#include "sim/can_bus.hpp"

#include <span>
#include <stdexcept>

#include "trace/trace.hpp"
#include "util/crc16.hpp"

namespace iecd::sim {

namespace {

/// Integrity word over identifier + payload (the model's stand-in for the
/// CRC field of the real frame format).
std::uint16_t frame_crc(const CanFrame& frame) {
  std::uint16_t crc = 0xFFFF;
  crc = util::crc16_ccitt_update(crc, static_cast<std::uint8_t>(frame.id));
  crc = util::crc16_ccitt_update(crc,
                                 static_cast<std::uint8_t>(frame.id >> 8));
  crc = util::crc16_ccitt_update(crc,
                                 static_cast<std::uint8_t>(frame.id >> 16));
  crc = util::crc16_ccitt(
      std::span<const std::uint8_t>(frame.data.data(), frame.data.size()),
      crc);
  return crc;
}

}  // namespace

CanBus::CanBus(World& world, std::uint32_t bitrate_bps, std::string name)
    : world_(world), name_(std::move(name)), bitrate_(bitrate_bps) {
  if (bitrate_bps == 0) throw std::invalid_argument("CanBus: bitrate 0");
  // Standard frame: 47 overhead bits + 8*dlc data bits; worst-case bit
  // stuffing adds ~1 bit per 5 (applied to the stuffable 34+8*dlc bits);
  // plus 3 bits interframe space.  Precomputed per DLC — the hot path
  // never touches floating point.
  for (int dlc = 0; dlc <= 8; ++dlc) {
    const double stuffable = 34.0 + 8.0 * dlc;
    const double bits = 47.0 + 8.0 * dlc + stuffable / 5.0 + 3.0;
    frame_times_[static_cast<std::size_t>(dlc)] =
        static_cast<SimTime>(bits * 1e9 / bitrate_ + 0.5);
  }
}

CanBus::NodeId CanBus::attach_node(std::string node_name, RxCallback on_rx) {
  nodes_.push_back({std::move(node_name), std::move(on_rx), {}});
  return static_cast<NodeId>(nodes_.size() - 1);
}

SimTime CanBus::frame_time(int dlc) const {
  if (dlc >= 0 && dlc <= 8) return frame_times_[static_cast<std::size_t>(dlc)];
  const double stuffable = 34.0 + 8.0 * dlc;
  const double bits = 47.0 + 8.0 * dlc + stuffable / 5.0 + 3.0;
  return static_cast<SimTime>(bits * 1e9 / bitrate_ + 0.5);
}

bool CanBus::transmit(NodeId node, CanFrame frame) {
  if (frame.dlc() > 8) return false;
  if (node < 0 || node >= static_cast<NodeId>(nodes_.size())) {
    throw std::out_of_range("CanBus: unknown node");
  }
  QueuedFrame queued;
  queued.crc = frame_crc(frame);
  queued.frame = frame;
  nodes_[static_cast<std::size_t>(node)].tx_queue.push_back(queued);
  if (!busy_) try_start();
  return true;
}

void CanBus::set_fault_hook(FrameFaultHook hook) {
  fault_hook_ = std::move(hook);
}

std::size_t CanBus::pending() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) n += node.tx_queue.size();
  return n;
}

void CanBus::try_start() {
  if (busy_) return;
  // Arbitration: among the heads of all non-empty queues, the lowest
  // identifier wins (ties: lowest node index, deterministic).
  int winner = -1;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].tx_queue.empty()) continue;
    if (winner < 0 ||
        nodes_[i].tx_queue.front().frame.id <
            nodes_[static_cast<std::size_t>(winner)]
                .tx_queue.front()
                .frame.id) {
      winner = static_cast<int>(i);
    }
  }
  if (winner < 0) return;
  busy_ = true;
  Node& tx = nodes_[static_cast<std::size_t>(winner)];
  in_flight_ = tx.tx_queue.front();
  tx.tx_queue.pop_front();
  in_flight_winner_ = winner;
  in_flight_dropped_ = false;
  if (fault_hook_) {
    const FrameFault fault = fault_hook_(in_flight_.frame);
    switch (fault.action) {
      case FrameFaultAction::kCorrupt:
        if (!in_flight_.frame.data.empty()) {
          in_flight_.frame.data[0] ^= fault.xor_mask;
        } else {
          in_flight_.crc ^= fault.xor_mask;
        }
        break;
      case FrameFaultAction::kDrop:
        // The frame still occupies its wire time; delivery discards it.
        in_flight_dropped_ = true;
        break;
      case FrameFaultAction::kDuplicate:
        // Retransmit echo: a copy goes back to the head of the sender's
        // queue and re-arbitrates right after this frame.
        tx.tx_queue.push_front(in_flight_);
        ++stats_.frames_duplicated;
        break;
      case FrameFaultAction::kNone:
        break;
    }
  }
  const SimTime wire = frame_time(in_flight_.frame.dlc());
  stats_.busy_time += wire;
  in_flight_started_ = world_.now();
  world_.queue().schedule_in(wire, [this] { deliver(); });
}

void CanBus::deliver() {
  if (in_flight_dropped_) {
    ++stats_.frames_dropped;
    in_flight_dropped_ = false;
  } else if (frame_crc(in_flight_.frame) != in_flight_.crc) {
    // Integrity check failed: every receiver discards the frame.
    ++stats_.crc_errors;
  } else {
    ++stats_.frames_delivered;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (static_cast<int>(i) == in_flight_winner_) continue;
      if (nodes_[i].on_rx) nodes_[i].on_rx(in_flight_.frame, world_.now());
    }
  }
  if (auto* tr = trace::recorder()) {
    // One slice per frame on the bus track: arbitration winner's wire
    // occupation, tagged with the arbitrating identifier.
    tr->span_complete(
        "sim", nodes_[static_cast<std::size_t>(in_flight_winner_)].name,
        name_, in_flight_started_, world_.now(),
        static_cast<double>(in_flight_.frame.id));
    tr->counter("sim", "pending_frames", name_, world_.now(),
                static_cast<double>(pending()));
  }
  busy_ = false;
  try_start();
}

}  // namespace iecd::sim
