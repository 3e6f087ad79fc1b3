#include "sim/serial_link.hpp"

#include <algorithm>
#include <stdexcept>

namespace iecd::sim {

SimTime SerialConfig::byte_time() const {
  if (baud_rate == 0) throw std::invalid_argument("SerialConfig: baud 0");
  const double bit_ns = 1e9 / static_cast<double>(baud_rate);
  return static_cast<SimTime>(bit_ns * bits_per_byte() + 0.5);
}

SerialChannel::SerialChannel(EventQueue& queue, SerialConfig config,
                             std::string name)
    : queue_(queue), config_(config), name_(std::move(name)) {}

SimTime SerialChannel::byte_time() const {
  if (byte_time_cache_ == 0) byte_time_cache_ = config_.byte_time();
  return byte_time_cache_;
}

void SerialChannel::set_receiver(
    std::function<void(std::uint8_t, SimTime)> on_byte) {
  on_byte_ = std::move(on_byte);
  on_burst_ = nullptr;
}

void SerialChannel::set_burst_receiver(BurstCallback on_burst) {
  on_burst_ = std::move(on_burst);
  on_byte_ = nullptr;
}

void SerialChannel::set_fault_hook(ByteFaultHook hook) {
  fault_hook_ = std::move(hook);
}

SimTime SerialChannel::wire_free_at() const {
  return std::max(wire_free_at_, queue_.now());
}

void SerialChannel::transmit(std::uint8_t byte) { transmit(&byte, 1); }

void SerialChannel::transmit(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return;
  maybe_compact();
  buf_.insert(buf_.end(), data, data + len);
  const SimTime bt = byte_time();
  busy_time_ += bt * static_cast<SimTime>(len);
  const SimTime now = queue_.now();
  wire_free_at_ = std::max(wire_free_at_, now) +
                  bt * static_cast<SimTime>(len);
  if (active_) return;  // the armed event (or its re-arm) picks these up
  active_ = true;
  if (on_burst_) {
    burst_t0_ = now;
    arm_burst_event();
  } else {
    // One recurring event carries the whole back-to-back burst: ticks at
    // now + k*byte_time are exactly the per-byte completion instants.
    event_ = queue_.schedule_every(bt, bt, [this] { deliver_tick(); });
  }
}

void SerialChannel::arm_burst_event() {
  scheduled_ = pending();
  event_ = queue_.schedule_in(wire_free_at_ - queue_.now(),
                              [this] { deliver_burst(); });
}

void SerialChannel::deliver_tick() {
  std::uint8_t byte = buf_[head_];
  bool drop = false;
  bool duplicate = false;
  if (fault_hook_) {
    const ByteFault fault = fault_hook_(byte);
    switch (fault.action) {
      case ByteFaultAction::kCorrupt:
        byte ^= fault.xor_mask;
        ++bytes_corrupted_;
        break;
      case ByteFaultAction::kDrop:
        // The byte still occupied its wire time; the receiver's UART
        // discarded it (framing/start-bit corruption).
        drop = true;
        ++bytes_dropped_;
        break;
      case ByteFaultAction::kDuplicate:
        duplicate = true;
        ++bytes_duplicated_;
        break;
      case ByteFaultAction::kNone:
        break;
    }
  }
  ++head_;
  ++bytes_transferred_;
  if (on_byte_ && !drop) {
    on_byte_(byte, queue_.now());
    if (duplicate) on_byte_(byte, queue_.now());
  }
  if (pending() == 0) {
    queue_.cancel(event_);
    event_ = 0;
    active_ = false;
    buf_.clear();
    head_ = 0;
  }
}

void SerialChannel::deliver_burst() {
  const std::size_t n = scheduled_;
  const std::size_t first = head_;
  const SimTime bt = byte_time();
  const SimTime first_done = burst_t0_ + bt;
  head_ += n;
  bytes_transferred_ += n;
  active_ = false;
  event_ = 0;
  // Per-byte fault pass.  The scratch copy materializes only at the first
  // byte a fault actually touches: a hooked-but-quiet burst still hands the
  // receiver the zero-copy aliasing span below, bit-identical to the
  // unhooked channel.
  bool faulted = false;
  if (fault_hook_) {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint8_t byte = buf_[first + i];
      const ByteFault fault = fault_hook_(byte);
      if (!faulted && fault.action != ByteFaultAction::kNone) {
        fault_scratch_.assign(buf_.begin() + static_cast<std::ptrdiff_t>(first),
                              buf_.begin() +
                                  static_cast<std::ptrdiff_t>(first + i));
        faulted = true;
      }
      switch (fault.action) {
        case ByteFaultAction::kCorrupt:
          fault_scratch_.push_back(byte ^ fault.xor_mask);
          ++bytes_corrupted_;
          break;
        case ByteFaultAction::kDrop:
          ++bytes_dropped_;
          break;
        case ByteFaultAction::kDuplicate:
          fault_scratch_.push_back(byte);
          fault_scratch_.push_back(byte);
          ++bytes_duplicated_;
          break;
        case ByteFaultAction::kNone:
          if (faulted) fault_scratch_.push_back(byte);
          break;
      }
    }
  }
  if (on_burst_) {
    if (faulted) {
      on_burst_(std::span<const std::uint8_t>(fault_scratch_), first_done, bt);
    } else {
      // The span aliases the TX buffer: valid only during the callback, and
      // the receiver must not transmit into this same channel from inside
      // it.
      on_burst_(std::span<const std::uint8_t>(buf_.data() + first, n),
                first_done, bt);
    }
  }
  if (pending() > 0) {
    // Bytes queued while this burst was on the wire: they followed
    // back-to-back, so the next sub-burst started exactly now.
    burst_t0_ = queue_.now();
    active_ = true;
    arm_burst_event();
  } else {
    buf_.clear();
    head_ = 0;
  }
}

void SerialChannel::maybe_compact() {
  if (head_ == buf_.size()) {
    buf_.clear();
    head_ = 0;
  } else if (head_ > 4096 && head_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

SerialLink::SerialLink(World& world, SerialConfig config, std::string name)
    : name_(std::move(name)),
      config_(config),
      a_to_b_(world.queue(), config, name_ + ".a2b"),
      b_to_a_(world.queue(), config, name_ + ".b2a") {}

}  // namespace iecd::sim
