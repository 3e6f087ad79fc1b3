#include "campaign/checkpoint.hpp"

#include <filesystem>
#include <utility>

#include "evidence/reader.hpp"
#include "evidence/writer.hpp"
#include "fault/rng.hpp"

namespace iecd::campaign {

namespace {

using evidence::PayloadCursor;
using evidence::read_histogram;
using evidence::store_f64;
using evidence::store_histogram;
using evidence::store_le;
using evidence::store_str;

/// Version of the opaque state blob inside the checkpoint record; bumped
/// whenever the layout below changes (the record's own schema version
/// covers only the outer framing).  Version 2 writes histograms in
/// format.hpp's shared codec.
constexpr std::uint16_t kStateVersion = 2;

// ---------------------------------------------------------- monitor codec

void encode_timing(std::vector<std::uint8_t>& out,
                   const obs::TimingMonitor& m) {
  const obs::TimingMonitor::RawState s = m.raw();
  store_f64(out, s.config.period_s);
  store_f64(out, s.config.deadline_s);
  store_histogram(out, s.response_us);
  store_histogram(out, s.exec_us);
  store_histogram(out, s.jitter_us);
  store_le<std::uint64_t>(out, s.activations);
  store_le<std::uint64_t>(out, s.deadline_misses);
  store_le<std::int64_t>(out, s.last_miss_time);
  store_le<std::int64_t>(out, s.prev_start);
  store_le<std::uint8_t>(out, s.have_prev ? 1 : 0);
}

bool decode_timing(PayloadCursor& cur, obs::TimingMonitor& out) {
  obs::TimingMonitor::RawState s;
  std::uint8_t have_prev = 0;
  if (!cur.read_f64(s.config.period_s) || !cur.read_f64(s.config.deadline_s) ||
      !read_histogram(cur, s.response_us) ||
      !read_histogram(cur, s.exec_us) ||
      !read_histogram(cur, s.jitter_us) || !cur.read(s.activations) ||
      !cur.read(s.deadline_misses) || !cur.read(s.last_miss_time) ||
      !cur.read(s.prev_start) || !cur.read(have_prev)) {
    return false;
  }
  s.have_prev = have_prev != 0;
  out = obs::TimingMonitor::from_raw(std::move(s));
  return true;
}

void encode_dump(std::vector<std::uint8_t>& out,
                 const obs::FlightRecorder::Dump& dump) {
  store_str(out, dump.trigger);
  store_str(out, dump.detail);
  store_le<std::int64_t>(out, dump.time);
  store_le<std::uint64_t>(out, dump.ordinal);
  store_le<std::uint32_t>(out, static_cast<std::uint32_t>(dump.events.size()));
  for (const auto& e : dump.events) {
    store_le<std::uint8_t>(out, static_cast<std::uint8_t>(e.type));
    store_str(out, e.category);
    store_str(out, e.name);
    store_str(out, e.track);
    store_le<std::int64_t>(out, e.time);
    store_le<std::int64_t>(out, e.duration);
    store_le<std::uint64_t>(out, e.seq);
    store_f64(out, e.value);
  }
  store_le<std::uint32_t>(out,
                          static_cast<std::uint32_t>(dump.monitor_state.size()));
  for (const auto& line : dump.monitor_state) store_str(out, line);
}

bool decode_dump(PayloadCursor& cur, obs::FlightRecorder::Dump& dump) {
  std::uint32_t events = 0;
  if (!cur.read_str(dump.trigger) || !cur.read_str(dump.detail) ||
      !cur.read(dump.time) || !cur.read(dump.ordinal) || !cur.read(events)) {
    return false;
  }
  dump.events.resize(events);
  for (auto& e : dump.events) {
    std::uint8_t type = 0;
    if (!cur.read(type) || !cur.read_str(e.category) || !cur.read_str(e.name) ||
        !cur.read_str(e.track) || !cur.read(e.time) || !cur.read(e.duration) ||
        !cur.read(e.seq) || !cur.read_f64(e.value)) {
      return false;
    }
    e.type = static_cast<trace::EventType>(type);
  }
  std::uint32_t lines = 0;
  if (!cur.read(lines)) return false;
  dump.monitor_state.resize(lines);
  for (auto& line : dump.monitor_state) {
    if (!cur.read_str(line)) return false;
  }
  return true;
}

}  // namespace

void encode_health_report(std::vector<std::uint8_t>& out,
                          const obs::HealthReport& report) {
  store_str(out, report.source);
  store_le<std::uint64_t>(out, report.runs);
  store_le<std::uint32_t>(out, static_cast<std::uint32_t>(report.tasks.size()));
  for (const auto& [name, monitor] : report.tasks) {
    store_str(out, name);
    encode_timing(out, monitor);
  }
  store_le<std::uint32_t>(out,
                          static_cast<std::uint32_t>(report.watermarks.size()));
  for (const auto& [name, monitor] : report.watermarks) {
    store_str(out, name);
    store_f64(out, monitor.current());
    store_f64(out, monitor.peak());
    store_f64(out, monitor.low());
    store_f64(out, monitor.sum());
    store_le<std::uint64_t>(out, monitor.samples());
  }
  store_le<std::uint32_t>(out,
                          static_cast<std::uint32_t>(report.anomalies.size()));
  for (const auto& [name, count] : report.anomalies) {
    store_str(out, name);
    store_le<std::uint64_t>(out, count);
  }
  store_le<std::uint32_t>(out, static_cast<std::uint32_t>(report.dumps.size()));
  for (const auto& dump : report.dumps) encode_dump(out, dump);
  store_le<std::uint64_t>(out, report.dumps_suppressed);
}

bool decode_health_report(evidence::PayloadCursor& cur,
                          obs::HealthReport& out) {
  out = obs::HealthReport{};
  std::uint32_t tasks = 0;
  if (!cur.read_str(out.source) || !cur.read(out.runs) || !cur.read(tasks)) {
    return false;
  }
  for (std::uint32_t i = 0; i < tasks; ++i) {
    std::string name;
    obs::TimingMonitor monitor;
    if (!cur.read_str(name) || !decode_timing(cur, monitor)) return false;
    out.tasks.emplace(std::move(name), std::move(monitor));
  }
  std::uint32_t watermarks = 0;
  if (!cur.read(watermarks)) return false;
  for (std::uint32_t i = 0; i < watermarks; ++i) {
    std::string name;
    double current = 0, peak = 0, low = 0, sum = 0;
    std::uint64_t samples = 0;
    if (!cur.read_str(name) || !cur.read_f64(current) || !cur.read_f64(peak) ||
        !cur.read_f64(low) || !cur.read_f64(sum) || !cur.read(samples)) {
      return false;
    }
    out.watermarks.emplace(std::move(name),
                           obs::WatermarkMonitor::from_raw(current, peak, low,
                                                           sum, samples));
  }
  std::uint32_t anomalies = 0;
  if (!cur.read(anomalies)) return false;
  for (std::uint32_t i = 0; i < anomalies; ++i) {
    std::string name;
    std::uint64_t count = 0;
    if (!cur.read_str(name) || !cur.read(count)) return false;
    out.anomalies.emplace(std::move(name), count);
  }
  std::uint32_t dumps = 0;
  if (!cur.read(dumps)) return false;
  out.dumps.resize(dumps);
  for (auto& dump : out.dumps) {
    if (!decode_dump(cur, dump)) return false;
  }
  return cur.read(out.dumps_suppressed);
}

std::uint64_t campaign_config_hash(const fault::CampaignOptions& options) {
  // FNV-1a over a little-endian encoding of the result-determining fields:
  // integers as u64, doubles as their bit patterns, the name as a u64
  // length followed by its bytes.  The starting value is FNV's offset
  // basis with its last digit missing; it stays so that checkpoints sealed
  // by earlier builds still resume.
  constexpr std::uint64_t kBasis = 1469598103934665603ULL;
  std::vector<std::uint8_t> b;
  store_le<std::uint64_t>(b, options.name.size());
  for (char c : options.name) b.push_back(static_cast<std::uint8_t>(c));
  store_le<std::uint64_t>(b, options.seed);
  store_le<std::uint64_t>(b, options.runs);
  store_le<std::uint64_t>(b, options.batch);
  const fault::FaultPlan& p = options.plan;
  store_f64(b, p.serial_corrupt_rate);
  store_f64(b, p.serial_drop_rate);
  store_f64(b, p.serial_dup_rate);
  store_f64(b, p.can_corrupt_rate);
  store_f64(b, p.can_drop_rate);
  store_f64(b, p.can_dup_rate);
  store_f64(b, p.pil_truncate_rate);
  store_f64(b, p.pil_delay_rate);
  store_f64(b, p.pil_delay_max_s);
  store_f64(b, p.irq_spike_rate);
  store_le<std::uint64_t>(b, p.irq_spike_cycles);
  store_f64(b, p.task_overrun_rate);
  store_le<std::uint64_t>(b, p.task_overrun_cycles);
  store_f64(b, p.adc_stuck_rate);
  store_f64(b, p.adc_noise_rate);
  store_le<std::uint64_t>(b, p.adc_noise_lsb);
  store_f64(b, p.encoder_glitch_rate);
  store_le<std::uint64_t>(b, static_cast<std::uint64_t>(
                                 static_cast<std::int64_t>(
                                     p.encoder_glitch_counts)));
  store_f64(b, p.torque_pulse_rate_hz);
  store_f64(b, p.torque_pulse_nm);
  store_f64(b, p.torque_pulse_s);
  return fault::fnv1a(
      std::string_view(reinterpret_cast<const char*>(b.data()), b.size()),
      kBasis);
}

bool save_checkpoint(const std::string& path, const CheckpointState& state) {
  std::vector<std::uint8_t> blob;
  store_le<std::uint16_t>(blob, kStateVersion);
  encode_health_report(blob, state.health);
  store_le<std::uint32_t>(blob,
                          static_cast<std::uint32_t>(
                              state.unrecovered_runs.size()));
  for (std::size_t index : state.unrecovered_runs) {
    store_le<std::uint64_t>(blob, index);
    const auto it = state.unrecovered_health.find(index);
    store_le<std::uint8_t>(blob, it != state.unrecovered_health.end() ? 1 : 0);
    if (it != state.unrecovered_health.end()) {
      encode_health_report(blob, it->second);
    }
  }

  std::vector<std::uint8_t> payload;
  store_str(payload, state.name);
  store_le<std::uint64_t>(payload, state.config_hash);
  store_le<std::uint64_t>(payload, state.total_runs);
  store_le<std::uint64_t>(payload, state.watermark);
  store_le<std::uint32_t>(payload, static_cast<std::uint32_t>(blob.size()));
  payload.insert(payload.end(), blob.begin(), blob.end());

  evidence::EvidenceWriter writer;
  writer.record_build_info();
  writer.append_record(evidence::kSchemaCampaignCheckpoint, 1, payload);
  writer.record_metrics(state.merged);
  writer.finish();

  const std::string tmp = path + ".tmp";
  if (!writer.write_file(tmp)) return false;
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

CheckpointStatus load_checkpoint(const std::string& path,
                                 CheckpointState& out) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    return CheckpointStatus::kMissing;
  }
  evidence::EvidenceReader reader;
  if (reader.parse_file(path) != evidence::Status::kOk) {
    return CheckpointStatus::kCorrupt;
  }
  if (reader.campaign_checkpoints().size() != 1) {
    return CheckpointStatus::kCorrupt;
  }
  const evidence::CampaignCheckpointRecord& rec =
      reader.campaign_checkpoints().front();

  out = CheckpointState{};
  out.name = rec.name;
  out.config_hash = rec.config_hash;
  out.total_runs = rec.total_runs;
  out.watermark = rec.watermark;
  out.merged = reader.metrics();

  PayloadCursor cur(rec.state.data(), rec.state.size());
  std::uint16_t version = 0;
  if (!cur.read(version) || version != kStateVersion) {
    return CheckpointStatus::kCorrupt;
  }
  if (!decode_health_report(cur, out.health)) {
    return CheckpointStatus::kCorrupt;
  }
  std::uint32_t unrecovered = 0;
  if (!cur.read(unrecovered)) return CheckpointStatus::kCorrupt;
  for (std::uint32_t i = 0; i < unrecovered; ++i) {
    std::uint64_t index = 0;
    std::uint8_t has_health = 0;
    if (!cur.read(index) || !cur.read(has_health)) {
      return CheckpointStatus::kCorrupt;
    }
    out.unrecovered_runs.push_back(static_cast<std::size_t>(index));
    if (has_health != 0) {
      obs::HealthReport health;
      if (!decode_health_report(cur, health)) {
        return CheckpointStatus::kCorrupt;
      }
      out.unrecovered_health.emplace(static_cast<std::size_t>(index),
                                     std::move(health));
    }
  }
  if (!cur.done()) return CheckpointStatus::kCorrupt;
  return CheckpointStatus::kOk;
}

}  // namespace iecd::campaign
