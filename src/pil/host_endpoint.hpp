/// \file host_endpoint.hpp
/// Simulator-PC side of the PIL bench (Fig. 6.2): at each control period it
/// samples the plant model, ships the sensor frame down the serial line,
/// and applies the actuator frame coming back.  The plant and the board
/// exchange data "at the end of each simulation step (control period)".
///
/// Fast path: the endpoint reuses one set of encode/decode scratch buffers
/// for the whole session (no heap traffic per exchange), receives the
/// response as a whole burst (one event per frame instead of one per
/// byte), and — with batch > 1 — packs several control steps into a single
/// frame, trading per-step actuation latency for wire efficiency.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/monitor.hpp"
#include "pil/frame.hpp"
#include "sim/serial_link.hpp"
#include "sim/world.hpp"
#include "util/latency_histogram.hpp"

namespace iecd::pil {

class HostEndpoint {
 public:
  /// Timeout/retransmit recovery for lossy links (fault campaigns; see
  /// src/fault/).  Disabled by default — a disabled Recovery leaves the
  /// endpoint bit-identical to the pre-recovery protocol.  When enabled,
  /// an exchange that has not been answered within \p timeout is
  /// retransmitted with the SAME sequence number (the board's duplicate
  /// cache replays its response without re-stepping the controller), the
  /// timeout doubling with each copy up to the exchange interval.  After
  /// \p max_retransmits unanswered copies the exchange is abandoned: the
  /// plant holds the last applied actuator output (safe state) until the
  /// next exchange or a late response supersedes it.
  ///
  /// Deployment note: retransmission is only useful when the round trip
  /// fits well inside the exchange interval — on a link where RTT exceeds
  /// the period (e.g. 115200 baud at a 1 ms period) a sub-period timeout
  /// would retransmit healthy exchanges; use a faster link or leave
  /// recovery off there.
  struct Recovery {
    bool enabled = false;
    sim::SimTime timeout = 0;      ///< first timeout; 0 = interval / 2
    int max_retransmits = 2;       ///< copies after the original send
  };

  struct Options {
    sim::SimTime period = sim::milliseconds(1);  ///< control period
    /// Control steps per frame.  1 = classic per-period exchange
    /// (bit-identical to the unbatched protocol); N packs N samples into
    /// one frame and fires the exchange every N periods.
    int batch = 1;
    Recovery recovery;
  };

  /// \p tx: channel toward the board, \p rx: channel from the board.
  HostEndpoint(sim::World& world, sim::SerialChannel& tx,
               sim::SerialChannel& rx, Options options);

  /// Plant coupling: \p sample_into appends the plant outputs to the
  /// scratch vector it is handed (cleared by the caller), \p apply writes
  /// the actuator values, \p advance integrates the plant model up to the
  /// given time [s].
  void set_plant(std::function<void(std::vector<double>&)> sample_into,
                 std::function<void(const std::vector<double>&)> apply,
                 std::function<void(double)> advance);

  /// Starts the periodic exchange.
  void start();
  void stop() { running_ = false; }

  /// Where the latency samples land, in microseconds: every matched
  /// response records its round trip (send -> decoded arrival) into
  /// \p round_trip_us, every recovered exchange its outage (original send
  /// -> matched response) into \p recovery_us.  The series belong to the
  /// caller (PilSession points them at its report's "pil.round_trip_us" /
  /// "pil.recovery_us"); null drops the samples.
  void set_latency_series(util::LatencyHistogram* round_trip_us,
                          util::LatencyHistogram* recovery_us) {
    rtt_us_ = round_trip_us;
    recovery_us_ = recovery_us;
  }
  std::uint64_t exchanges() const { return exchanges_; }
  std::uint64_t deadline_misses() const { return deadline_misses_; }
  std::uint64_t crc_errors() const { return decoder_.crc_errors(); }
  const FrameDecoder& decoder() const { return decoder_; }

  /// Recovery statistics (all zero while Recovery.enabled is false).
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t recovered_exchanges() const { return recoveries_; }
  std::uint64_t exchanges_abandoned() const { return abandoned_; }

  /// Online observability: when set, every matched response feeds its
  /// per-sequence round trip (send instant -> decoded arrival) into
  /// \p monitor, keyed on the send instant for jitter tracking.  Null
  /// detaches; passive either way.
  void set_rtt_monitor(obs::TimingMonitor* monitor) { rtt_monitor_ = monitor; }

  /// Like set_rtt_monitor, for recovered exchanges only: release/start is
  /// the original send, completion the response that finally matched.
  void set_recovery_monitor(obs::TimingMonitor* monitor) {
    recovery_monitor_ = monitor;
  }

  /// Fault-injection hook (see src/fault/): consulted once per wire send
  /// (original and retransmit).  truncate_to clips the frame on the wire
  /// (the receiver's decoder resynchronizes on the next SOF); delay defers
  /// the send.  Null or a {SIZE_MAX, 0} answer leaves sends untouched.
  struct TxFault {
    std::size_t truncate_to = SIZE_MAX;
    sim::SimTime delay = 0;
  };
  using TxFaultHook = std::function<TxFault(std::size_t frame_len)>;
  void set_tx_fault_hook(TxFaultHook hook) { tx_fault_hook_ = std::move(hook); }

 private:
  void exchange();
  void on_frame(const Frame& frame);
  void note_sent(std::uint8_t seq, sim::SimTime when);
  void transmit_faulted(const std::vector<std::uint8_t>& bytes);
  void arm_timeout();
  void on_timeout(std::uint64_t generation);
  sim::SimTime exchange_interval() const {
    return options_.period * static_cast<sim::SimTime>(options_.batch);
  }

  sim::World& world_;
  sim::SerialChannel& tx_;
  Options options_;
  std::function<void(std::vector<double>&)> sample_into_;
  std::function<void(const std::vector<double>&)> apply_;
  std::function<void(double)> advance_;
  FrameDecoder decoder_;
  bool running_ = false;
  sim::EventId exchange_event_ = 0;
  bool awaiting_response_ = false;
  std::uint8_t seq_ = 0;
  util::LatencyHistogram* rtt_us_ = nullptr;
  std::uint64_t exchanges_ = 0;
  std::uint64_t deadline_misses_ = 0;
  obs::TimingMonitor* rtt_monitor_ = nullptr;

  /// Recovery state for the outstanding exchange (Recovery.enabled only).
  std::uint64_t retransmits_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t abandoned_ = 0;
  util::LatencyHistogram* recovery_us_ = nullptr;
  obs::TimingMonitor* recovery_monitor_ = nullptr;
  TxFaultHook tx_fault_hook_;
  std::uint8_t pending_seq_ = 0;        ///< seq the timeout watches
  sim::SimTime pending_sent_ = 0;       ///< original send instant
  int pending_retransmits_ = 0;         ///< copies sent for this exchange
  sim::SimTime current_timeout_ = 0;    ///< next timeout delay
  sim::EventId timeout_event_ = 0;
  std::uint64_t exchange_generation_ = 0;  ///< guards stale timeout events

  /// Session-lifetime scratch: reused every exchange.
  std::vector<double> sample_values_;
  std::vector<std::uint8_t> tx_payload_;
  std::vector<std::uint8_t> tx_bytes_;
  std::vector<double> apply_values_;

  /// Outstanding sensor frames, FIFO.  Responses come back in order, so
  /// the round trip of response seq s is measured against the OLDEST
  /// unanswered send with that seq — correct even when a slow line builds
  /// a backlog deeper than the 8-bit sequence space (the aliasing that
  /// produced the non-monotonic RTT-vs-baud anomaly in E3).
  struct SentEntry {
    std::uint8_t seq = 0;
    sim::SimTime when = 0;
  };
  std::vector<SentEntry> sent_ring_;
  std::size_t sent_head_ = 0;
  std::size_t sent_tail_ = 0;  ///< == head means empty
};

}  // namespace iecd::pil
