#include "pil/host_endpoint.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace iecd::pil {

HostEndpoint::HostEndpoint(sim::World& world, sim::SerialChannel& tx,
                           sim::SerialChannel& rx, Options options)
    : world_(world), tx_(tx), options_(options) {
  if (options_.batch < 1) options_.batch = 1;
  decoder_.set_callback([this](const Frame& frame) { on_frame(frame); });
  // Responses are consumed frame-wise, so the whole burst arrives in one
  // event; per-byte arrival instants are reconstructed inside the decoder.
  rx.set_burst_receiver([this](std::span<const std::uint8_t> data,
                               sim::SimTime first_done, sim::SimTime bt) {
    if (auto* tr = trace::recorder()) {
      const std::uint64_t crc_before = decoder_.crc_errors();
      decoder_.feed_burst(data, first_done, bt);
      if (decoder_.crc_errors() != crc_before) {
        tr->instant("pil", "crc_error", "pil_host", world_.now());
      }
    } else {
      decoder_.feed_burst(data, first_done, bt);
    }
  });
}

void HostEndpoint::set_plant(
    std::function<void(std::vector<double>&)> sample_into,
    std::function<void(const std::vector<double>&)> apply,
    std::function<void(double)> advance) {
  sample_into_ = std::move(sample_into);
  apply_ = std::move(apply);
  advance_ = std::move(advance);
}

void HostEndpoint::note_sent(std::uint8_t seq, sim::SimTime when) {
  if (sent_head_ == sent_ring_.size()) {
    // Everything answered: restart at the front, keeping the capacity.
    sent_ring_.clear();
    sent_head_ = 0;
  }
  sent_ring_.push_back({seq, when});
}

void HostEndpoint::transmit_faulted(const std::vector<std::uint8_t>& bytes) {
  if (!tx_fault_hook_) {
    tx_.transmit(bytes);
    return;
  }
  const TxFault fault = tx_fault_hook_(bytes.size());
  const std::size_t len = fault.truncate_to < bytes.size()
                              ? fault.truncate_to
                              : bytes.size();
  if (fault.delay > 0) {
    // The scratch buffer is reused next exchange: a deferred send must
    // carry its own copy of the bytes.
    world_.queue().schedule_in(
        fault.delay,
        [this, copy = std::vector<std::uint8_t>(
                   bytes.begin(),
                   bytes.begin() + static_cast<std::ptrdiff_t>(len))] {
          tx_.transmit(copy);
        });
  } else {
    tx_.transmit(std::span<const std::uint8_t>(bytes.data(), len));
  }
}

void HostEndpoint::arm_timeout() {
  timeout_event_ = world_.queue().schedule_in(
      current_timeout_,
      [this, generation = exchange_generation_] { on_timeout(generation); });
}

void HostEndpoint::on_timeout(std::uint64_t generation) {
  // A stale event (the exchange it watched was answered, abandoned or
  // superseded) identifies itself by generation and dies quietly.
  if (generation != exchange_generation_ || !awaiting_response_) return;
  timeout_event_ = 0;
  if (pending_retransmits_ >= options_.recovery.max_retransmits) {
    // Persistent loss: give up on this exchange.  Nothing is applied — the
    // plant holds the last actuator output (safe state); a late response
    // still applies if it ever lands, and the next exchange supersedes.
    ++abandoned_;
    awaiting_response_ = false;
    ++exchange_generation_;
    if (auto* tr = trace::recorder()) {
      tr->span_end("pil", "exchange", "pil_host", world_.now());
      tr->instant("pil", "exchange_abandoned", "pil_host", world_.now());
    }
    return;
  }
  // Same sequence number on the wire: the board's duplicate cache replays
  // its response if only the response was lost, without re-stepping the
  // controller.  The original send instant stays — recovery latency spans
  // the whole outage.
  ++pending_retransmits_;
  ++retransmits_;
  transmit_faulted(tx_bytes_);
  current_timeout_ = std::min(2 * current_timeout_, exchange_interval());
  if (auto* tr = trace::recorder()) {
    tr->instant("pil", "retransmit", "pil_host", world_.now(),
                static_cast<double>(pending_seq_));
  }
  arm_timeout();
}

void HostEndpoint::on_frame(const Frame& frame) {
  if (frame.type != FrameType::kActuatorData) return;
  if (apply_) {
    apply_values_.clear();
    decode_signals_into(frame.payload, apply_values_);
    if (options_.batch > 1 && !apply_values_.empty()) {
      // Batched response: N stacked output groups arrive at once; only
      // the newest group is still current, the rest were superseded
      // before they could ever reach the plant.
      const std::size_t groups = static_cast<std::size_t>(options_.batch);
      const std::size_t group = apply_values_.size() / groups;
      if (group > 0 && apply_values_.size() == group * groups) {
        apply_values_.erase(apply_values_.begin(),
                            apply_values_.begin() +
                                static_cast<std::ptrdiff_t>(
                                    (groups - 1) * group));
      }
    }
    apply_(apply_values_);
  }
  // Responses come back in FIFO order: match against the oldest
  // unanswered send with this sequence number.  Entries older than the
  // match were never answered (their responses are lost for good) and are
  // consumed with it; an unmatched response — a duplicate whose original
  // already matched — must leave the ring alone, otherwise one stray
  // frame would drain every outstanding send's timing entry.
  bool found = false;
  sim::SimTime sent = 0;
  for (std::size_t i = sent_head_; i < sent_ring_.size(); ++i) {
    if (sent_ring_[i].seq == frame.seq) {
      sent = sent_ring_[i].when;
      found = true;
      sent_head_ = i + 1;
      break;
    }
  }
  const sim::SimTime arrival = decoder_.last_frame_time();
  double rtt_us = 0.0;
  if (found) {
    rtt_us = sim::to_microseconds(arrival - sent);
    if (rtt_us_) rtt_us_->record(rtt_us);
    // Per-sequence RTT monitor: release == service start == the send
    // instant; completion is the decoded arrival.
    if (rtt_monitor_) rtt_monitor_->record(sent, sent, arrival);
  }
  if (options_.recovery.enabled && awaiting_response_ &&
      frame.seq == pending_seq_) {
    // The outstanding exchange is answered: retire its timeout.  If it
    // took a retransmit to get here, this is a recovery — log the outage
    // span (original send -> response) for the campaign report.
    if (timeout_event_ != 0) {
      world_.queue().cancel(timeout_event_);
      timeout_event_ = 0;
    }
    ++exchange_generation_;
    if (pending_retransmits_ > 0) {
      ++recoveries_;
      if (recovery_us_) {
        recovery_us_->record(sim::to_microseconds(arrival - pending_sent_));
      }
      if (recovery_monitor_) {
        recovery_monitor_->record(pending_sent_, pending_sent_, arrival);
      }
    }
  }
  if (awaiting_response_) {
    if (auto* tr = trace::recorder()) {
      tr->span_end("pil", "exchange", "pil_host", world_.now(), rtt_us);
    }
  }
  awaiting_response_ = false;
}

void HostEndpoint::start() {
  if (running_) return;
  running_ = true;
  if (exchange_event_ != 0) world_.queue().cancel(exchange_event_);
  const sim::SimTime interval = exchange_interval();
  // One recurring event carries every exchange for the whole session.
  exchange_event_ = world_.queue().schedule_every(
      interval - world_.now(), interval, [this] { exchange(); });
}

void HostEndpoint::exchange() {
  if (!running_) {
    // stop() only clears the flag; the recurrence retires itself here.
    world_.queue().cancel(exchange_event_);
    exchange_event_ = 0;
    return;
  }
  // The previous actuator frame should have arrived within the period;
  // a late response is the PIL bench's deadline miss.
  if (awaiting_response_) {
    ++deadline_misses_;
    awaiting_response_ = false;  // stale response applies late when it lands
    if (auto* tr = trace::recorder()) {
      // Close the dangling exchange span so the timeline stays balanced.
      tr->span_end("pil", "exchange", "pil_host", world_.now());
      tr->instant("pil", "deadline_miss", "pil_host", world_.now());
    }
  }
  if (options_.recovery.enabled) {
    // Supersede any recovery still chasing the previous exchange.
    if (timeout_event_ != 0) {
      world_.queue().cancel(timeout_event_);
      timeout_event_ = 0;
    }
    ++exchange_generation_;
  }
  tx_payload_.clear();
  for (int k = 0; k < options_.batch; ++k) {
    // Sub-step k of the batch window ended at now - (batch-1-k) periods;
    // with batch == 1 this is exactly the classic per-period exchange.
    const sim::SimTime t_k =
        world_.now() -
        options_.period * static_cast<sim::SimTime>(options_.batch - 1 - k);
    if (advance_) advance_(sim::to_seconds(t_k));
    sample_values_.clear();
    if (sample_into_) sample_into_(sample_values_);
    encode_signals_into(sample_values_, tx_payload_);
  }
  tx_bytes_.clear();
  encode_frame_into(FrameType::kSensorData, seq_, tx_payload_, tx_bytes_);
  if (tx_fault_hook_) {
    transmit_faulted(tx_bytes_);
  } else {
    tx_.transmit(tx_bytes_);
  }
  note_sent(seq_, world_.now());
  const std::uint8_t sent_seq = seq_++;
  awaiting_response_ = true;
  ++exchanges_;
  if (options_.recovery.enabled) {
    pending_seq_ = sent_seq;
    pending_sent_ = world_.now();
    pending_retransmits_ = 0;
    current_timeout_ = options_.recovery.timeout > 0
                           ? options_.recovery.timeout
                           : exchange_interval() / 2;
    arm_timeout();
  }
  if (auto* tr = trace::recorder()) {
    tr->span_begin("pil", "exchange", "pil_host", world_.now(),
                   static_cast<double>(sent_seq));
  }
}

}  // namespace iecd::pil
