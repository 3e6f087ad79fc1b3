/// \file pil_session.hpp
/// Orchestrates a complete processor-in-the-loop run: the development
/// board (simulated MCU running the generated PIL code variant) and the
/// simulator PC (plant model) share one co-simulation world, connected by
/// the byte-timed RS232 link.  Produces the report the paper attributes to
/// this phase: round-trip/communication overhead, controller execution
/// times, response times, jitter, memory and stack.
#pragma once

#include <memory>
#include <string>

#include "beans/serial_bean.hpp"
#include "codegen/signal_buffer.hpp"
#include "pil/host_endpoint.hpp"
#include "pil/target_agent.hpp"
#include "rt/runtime.hpp"
#include "sim/serial_link.hpp"
#include "sim/world.hpp"
#include "trace/metrics.hpp"

namespace iecd::pil {

struct PilReport {
  /// Unified metrics view ("pil.*" names) — populated by PilSession::run()
  /// as the source the scalar mirrors below are read back from.
  trace::MetricsRegistry metrics;

  std::uint64_t exchanges = 0;
  std::uint64_t frames_processed = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t crc_errors = 0;
  double comm_time_per_step_us = 0.0;  ///< wire time of one exchange
  double comm_overhead_ratio = 0.0;    ///< wire time / control period
  double controller_exec_us_mean = 0.0;
  double controller_exec_us_max = 0.0;
  std::uint32_t observed_stack_bytes = 0;

  /// Per-exchange round trip [us]: a view of the "pil.round_trip_us"
  /// series in `metrics`, the one place the distribution is stored (empty
  /// when the series is absent).
  const util::LatencyHistogram& round_trip_us() const;

  /// Records the observed stack in both the registry and the mirror field.
  void set_observed_stack_bytes(std::uint32_t bytes);

  std::string to_string() const;
};

class PilSession {
 public:
  enum class LinkKind {
    kRs232,  ///< asynchronous serial (the paper's interface of choice)
    kSpi,    ///< synchronous serial (the paper's future-work extension)
  };

  struct Options {
    double period_s = 0.001;
    double duration_s = 1.0;
    std::uint32_t baud = 115200;  ///< bit clock (SPI: SCK frequency)
    LinkKind link = LinkKind::kRs232;
    /// Control steps per exchanged frame (see HostEndpoint::Options::batch);
    /// 1 keeps the classic per-period exchange bit-identical.
    int batch = 1;
    /// Timeout/retransmit recovery (see HostEndpoint::Recovery); disabled
    /// by default, which keeps the session bit-identical to the
    /// pre-recovery protocol.
    HostEndpoint::Recovery recovery{};
  };

  /// \p runtime must wrap the PIL variant of the application; \p serial is
  /// the board's serial bean (already bound); \p buffer the PIL signal
  /// buffer the generator registered slots in.
  PilSession(sim::World& world, rt::Runtime& runtime,
             beans::SerialBean& serial, codegen::SignalBuffer& buffer,
             Options options);

  /// Plant coupling (see HostEndpoint::set_plant).
  void set_plant(std::function<void(std::vector<double>&)> sample_into,
                 std::function<void(const std::vector<double>&)> apply,
                 std::function<void(double)> advance);

  /// Online observability: per-exchange round-trip TimingMonitor
  /// ("pil.exchange", deadline = the exchange interval), board UART TX
  /// FIFO watermark, and flight-recorder counter triggers for frame
  /// resyncs (decoder CRC rescans), UART overruns and late actuator
  /// frames.  Arms \p hub's poll on the world at the exchange interval.
  /// Passive; call before run().  Null detaches.
  void set_monitors(obs::MonitorHub* hub);

  /// Runs the co-simulation and collects the report.
  PilReport run();

  HostEndpoint& host() { return *host_; }
  TargetAgent& agent() { return *agent_; }
  sim::SerialLink& link() { return *link_; }

 private:
  sim::World& world_;
  rt::Runtime& runtime_;
  Options options_;
  std::string rx_profile_key_;
  std::unique_ptr<sim::SerialLink> link_;
  std::unique_ptr<TargetAgent> agent_;
  std::unique_ptr<HostEndpoint> host_;
  beans::SerialBean* serial_ = nullptr;
  obs::MonitorHub* monitors_ = nullptr;
};

}  // namespace iecd::pil
