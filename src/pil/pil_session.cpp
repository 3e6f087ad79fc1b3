#include "pil/pil_session.hpp"

#include "util/strings.hpp"

namespace iecd::pil {

const util::LatencyHistogram& PilReport::round_trip_us() const {
  static const util::LatencyHistogram kEmpty;
  const util::LatencyHistogram* s = metrics.find_series("pil.round_trip_us");
  return s != nullptr ? *s : kEmpty;
}

void PilReport::set_observed_stack_bytes(std::uint32_t bytes) {
  metrics.gauge("pil.observed_stack_bytes") = bytes;
  observed_stack_bytes = bytes;
}

std::string PilReport::to_string() const {
  std::string out;
  out += util::format("exchanges           %llu (misses %llu, crc errors %llu)\n",
                      static_cast<unsigned long long>(exchanges),
                      static_cast<unsigned long long>(deadline_misses),
                      static_cast<unsigned long long>(crc_errors));
  out += util::format("round trip          %.1f us mean, %.1f us p99\n",
                      round_trip_us().mean(), round_trip_us().percentile(99));
  out += util::format("comm per step       %.1f us (%.1f%% of the period)\n",
                      comm_time_per_step_us, comm_overhead_ratio * 100.0);
  out += util::format("controller exec     %.2f us mean, %.2f us max\n",
                      controller_exec_us_mean, controller_exec_us_max);
  out += util::format("observed stack      %u B\n", observed_stack_bytes);
  return out;
}

PilSession::PilSession(sim::World& world, rt::Runtime& runtime,
                       beans::SerialBean& serial,
                       codegen::SignalBuffer& buffer, Options options)
    : world_(world),
      runtime_(runtime),
      options_(options),
      rx_profile_key_(rt::Runtime::profile_key(serial.name(), "OnRxChar")),
      serial_(&serial) {
  const sim::SerialConfig cfg = options.link == LinkKind::kSpi
                                    ? sim::SerialConfig::spi(options.baud)
                                    : sim::SerialConfig::rs232(options.baud);
  link_ = std::make_unique<sim::SerialLink>(
      world, cfg, options.link == LinkKind::kSpi ? "pil_spi" : "pil_rs232");
  // Host transmits on a2b; the board's UART listens there and answers on
  // b2a.
  serial.peripheral()->connect(link_->b_to_a(), link_->a_to_b());
  agent_ = std::make_unique<TargetAgent>(runtime, serial, buffer);
  HostEndpoint::Options hopts;
  hopts.period = sim::from_seconds(options.period_s);
  hopts.batch = options.batch;
  hopts.recovery = options.recovery;
  host_ = std::make_unique<HostEndpoint>(world, link_->a_to_b(),
                                         link_->b_to_a(), hopts);
}

void PilSession::set_plant(
    std::function<void(std::vector<double>&)> sample_into,
    std::function<void(const std::vector<double>&)> apply,
    std::function<void(double)> advance) {
  host_->set_plant(std::move(sample_into), std::move(apply),
                   std::move(advance));
}

void PilSession::set_monitors(obs::MonitorHub* hub) {
  monitors_ = hub;
  if (!hub) {
    host_->set_rtt_monitor(nullptr);
    if (serial_ && serial_->peripheral()) {
      serial_->peripheral()->set_tx_fifo_monitor(nullptr);
    }
    return;
  }

  // Per-sequence round trip: the exchange interval is both the nominal
  // period and the deadline (a response later than the next exchange is
  // the PIL bench's deadline miss).
  const double interval_s =
      options_.period_s * static_cast<double>(options_.batch < 1
                                                  ? 1
                                                  : options_.batch);
  obs::TimingMonitor::Config rtt_config;
  rtt_config.period_s = interval_s;
  rtt_config.deadline_s = interval_s;
  host_->set_rtt_monitor(&hub->timing("pil.exchange", rtt_config));

  // Board-side UART TX FIFO occupancy (the response frames queue here).
  if (serial_ && serial_->peripheral()) {
    serial_->peripheral()->set_tx_fifo_monitor(
        &hub->watermark(serial_->name() + ".tx_fifo"));
    periph::UartPeripheral* uart = serial_->peripheral();
    hub->flight().add_counter_trigger(
        "uart_overrun", [uart]() { return uart->overruns(); });
  }

  // Decoder CRC failures force a resynchronization rescan on either side
  // of the wire; late actuator frames are the host's deadline misses.
  HostEndpoint* host = host_.get();
  TargetAgent* agent = agent_.get();
  hub->flight().add_counter_trigger("frame_resync", [host, agent]() {
    return host->crc_errors() + agent->crc_errors();
  });
  hub->flight().add_counter_trigger(
      "pil_deadline_miss", [host]() { return host->deadline_misses(); });

  // Recovery instrumentation (inert while Recovery.enabled is false: the
  // monitor stays empty and the triggers never fire).
  obs::TimingMonitor::Config recovery_config;
  recovery_config.period_s = interval_s;
  recovery_config.deadline_s = interval_s;
  host_->set_recovery_monitor(&hub->timing("pil.recovery", recovery_config));
  hub->flight().add_counter_trigger(
      "pil_retransmit", [host]() { return host->retransmits(); });
  hub->flight().add_counter_trigger(
      "pil_abandoned", [host]() { return host->exchanges_abandoned(); });

  hub->arm(world_, sim::from_seconds(interval_s));
}

PilReport PilSession::run() {
  // The registry is the report's source of truth: the host records its
  // latency samples straight into the report's series during the run; the
  // counters and gauges follow, then the scalar convenience mirrors.
  PilReport report;
  trace::MetricsRegistry& m = report.metrics;
  host_->set_latency_series(&m.series("pil.round_trip_us"),
                            &m.series("pil.recovery_us"));
  runtime_.start();
  agent_->start();
  host_->start();
  const std::uint64_t events_before = world_.queue().events_executed();
  world_.run_for(sim::from_seconds(options_.duration_s));
  host_->stop();
  host_->set_latency_series(nullptr, nullptr);
  const std::uint64_t events_run = world_.queue().events_executed() - events_before;

  m.counter("pil.exchanges").value = host_->exchanges();
  m.counter("pil.frames_processed").value = agent_->frames_processed();
  m.counter("pil.deadline_misses").value = host_->deadline_misses();
  m.counter("pil.crc_errors").value =
      host_->crc_errors() + agent_->crc_errors();

  // Robustness counters (all zero in clean runs with recovery disabled —
  // present unconditionally so reports compare structurally).
  m.counter("pil.retransmits").value = host_->retransmits();
  m.counter("pil.recovered_exchanges").value = host_->recovered_exchanges();
  m.counter("pil.exchanges_abandoned").value = host_->exchanges_abandoned();
  m.counter("pil.duplicate_frames").value = agent_->duplicate_frames();
  if (serial_ && serial_->peripheral()) {
    m.counter("uart.overruns").value = serial_->peripheral()->overruns();
  }
  const sim::SerialChannel& a2b = link_->a_to_b();
  const sim::SerialChannel& b2a = link_->b_to_a();
  m.counter("link.bytes_corrupted").value =
      a2b.bytes_corrupted() + b2a.bytes_corrupted();
  m.counter("link.bytes_dropped").value =
      a2b.bytes_dropped() + b2a.bytes_dropped();
  m.counter("link.bytes_duplicated").value =
      a2b.bytes_duplicated() + b2a.bytes_duplicated();

  // Wire time of one full exchange: the sensor frame down plus the
  // actuator frame back at the configured frame sizes.
  const sim::SimTime byte_time = link_->config().byte_time();
  const double total_bytes =
      static_cast<double>(link_->a_to_b().bytes_transferred() +
                          link_->b_to_a().bytes_transferred());
  if (host_->exchanges() > 0) {
    const double per_step_us = sim::to_microseconds(byte_time) * total_bytes /
                               static_cast<double>(host_->exchanges());
    m.gauge("pil.comm_time_per_step_us") = per_step_us;
    m.gauge("pil.comm_overhead_ratio") =
        per_step_us / (options_.period_s * 1e6);
  }
  if (host_->exchanges() > 0) {
    // Scheduler pressure of the communication stack: how many event-queue
    // dispatches one control-period exchange costs end to end.
    m.gauge("pil.events_per_exchange") =
        static_cast<double>(events_run) /
        static_cast<double>(host_->exchanges());
  }
  const obs::TimingMonitor* rx = runtime_.monitor(rx_profile_key_);
  if (rx != nullptr && rx->activations() > 0) {
    // Execution time of the frame-completing ISR (which embeds the step).
    m.gauge("pil.controller_exec_us_mean") = rx->exec_us().mean();
    m.gauge("pil.controller_exec_us_max") = rx->exec_us().max();
  }

  report.exchanges = m.counter("pil.exchanges").value;
  report.frames_processed = m.counter("pil.frames_processed").value;
  report.deadline_misses = m.counter("pil.deadline_misses").value;
  report.crc_errors = m.counter("pil.crc_errors").value;
  if (const double* g = m.find_gauge("pil.comm_time_per_step_us")) {
    report.comm_time_per_step_us = *g;
  }
  if (const double* g = m.find_gauge("pil.comm_overhead_ratio")) {
    report.comm_overhead_ratio = *g;
  }
  if (const double* g = m.find_gauge("pil.controller_exec_us_mean")) {
    report.controller_exec_us_mean = *g;
  }
  if (const double* g = m.find_gauge("pil.controller_exec_us_max")) {
    report.controller_exec_us_max = *g;
  }
  return report;
}

}  // namespace iecd::pil
