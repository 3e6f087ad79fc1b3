#include "fault/campaign.hpp"

#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace iecd::fault {

namespace {

using util::json_escape;
using util::json_number;

constexpr const char kSitePrefix[] = "fault.";
constexpr const char kInjectedSuffix[] = ".injected";

}  // namespace

void run_campaign_group(const CampaignOptions& opts,
                        const BatchCampaignScenario& scenario,
                        std::size_t first,
                        std::span<trace::MetricsRegistry> metrics,
                        std::span<obs::HealthReport> health) {
  const std::size_t width = metrics.size();
  // FaultInjector is pinned in place (non-copyable, non-movable): a deque
  // grows without relocating the lanes already built.
  std::deque<FaultInjector> injectors;
  std::vector<RunContext> lanes;
  lanes.reserve(width);
  for (std::size_t k = 0; k < width; ++k) {
    const std::size_t index = first + k;
    injectors.emplace_back(run_seed(opts.seed, index), opts.plan);
    lanes.push_back(RunContext{index, injectors.back().seed(),
                               injectors.back(), metrics[k], health[k]});
  }
  // std::vector<bool> is a proxy type, unusable as span<bool>.
  auto rec = std::make_unique<bool[]>(width);
  for (std::size_t k = 0; k < width; ++k) rec[k] = true;
  scenario(std::span<RunContext>(lanes), std::span<bool>(rec.get(), width));
  // Campaign bookkeeping of the finished runs.
  for (std::size_t k = 0; k < width; ++k) {
    injectors[k].export_metrics(metrics[k]);
    metrics[k].counter("campaign.runs").increment();
    if (!rec[k]) metrics[k].counter("campaign.unrecovered").increment();
    metrics[k].counter("campaign.faults_injected").value +=
        injectors[k].total_injected();
    metrics[k].counter("campaign.fault_opportunities").value +=
        injectors[k].total_opportunities();
  }
}

void run_campaign_group(const CampaignOptions& opts,
                        const CampaignScenario& scenario, std::size_t first,
                        std::span<trace::MetricsRegistry> metrics,
                        std::span<obs::HealthReport> health) {
  run_campaign_group(
      opts,
      BatchCampaignScenario([&scenario](std::span<RunContext> lanes,
                                        std::span<bool> recovered) {
        for (std::size_t k = 0; k < lanes.size(); ++k) {
          recovered[k] = scenario(lanes[k]);
        }
      }),
      first, metrics, health);
}

bool run_unrecovered(const trace::MetricsRegistry& run) {
  const auto* c = run.find_counter("campaign.unrecovered");
  return c != nullptr && c->value > 0;
}

void CampaignReport::read_totals() {
  const auto total = [this](const char* name) -> std::uint64_t {
    const auto* c = merged.find_counter(name);
    return c != nullptr ? c->value : 0;
  };
  unrecovered = total("campaign.unrecovered");
  faults_injected = total("campaign.faults_injected");
  fault_opportunities = total("campaign.fault_opportunities");
}

std::string CampaignReport::to_json() const {
  std::ostringstream os;
  os << "{\"campaign\":\"" << json_escape(name) << "\",\"seed\":" << seed
     << ",\"runs\":" << runs << ",\"unrecovered\":" << unrecovered
     << ",\"faults_injected\":" << faults_injected
     << ",\"fault_opportunities\":" << fault_opportunities;

  os << ",\"unrecovered_runs\":[";
  bool first = true;
  for (std::size_t index : unrecovered_runs) {
    if (!first) os << ",";
    first = false;
    os << index;
  }
  os << "]";

  // Per-site fault counts (merged over every run; map order, so the key
  // sequence is deterministic).
  os << ",\"sites\":{";
  first = true;
  for (const auto& [metric, counter] : merged.counters()) {
    const std::size_t prefix_len = sizeof kSitePrefix - 1;
    const std::size_t suffix_len = sizeof kInjectedSuffix - 1;
    if (metric.size() <= prefix_len + suffix_len) continue;
    if (metric.compare(0, prefix_len, kSitePrefix) != 0) continue;
    if (metric.compare(metric.size() - suffix_len, suffix_len,
                       kInjectedSuffix) != 0) {
      continue;
    }
    const std::string site =
        metric.substr(prefix_len, metric.size() - prefix_len - suffix_len);
    std::uint64_t opportunities = 0;
    if (const auto* c = merged.find_counter(kSitePrefix + site +
                                            ".opportunities")) {
      opportunities = c->value;
    }
    if (!first) os << ",";
    first = false;
    os << "\n\"" << json_escape(site) << "\":{\"injected\":" << counter.value
       << ",\"opportunities\":" << opportunities << "}";
  }
  os << "}";

  // Scenario-level results: every campaign.* counter, gauge and stat the
  // scenario recorded (IAE, tracking error, ...).
  os << ",\"scenario\":{";
  first = true;
  for (const auto& [metric, counter] : merged.counters()) {
    if (metric.compare(0, 9, "campaign.") != 0) continue;
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(metric) << "\":" << counter.value;
  }
  for (const auto& [metric, value] : merged.gauges()) {
    if (metric.compare(0, 9, "campaign.") != 0) continue;
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(metric) << "\":" << json_number(value);
  }
  for (const auto& [metric, stats] : merged.all_stats()) {
    if (metric.compare(0, 9, "campaign.") != 0) continue;
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(metric) << "\":{\"n\":" << stats.count()
       << ",\"mean\":" << json_number(stats.mean()) << ",\"min\":" << json_number(stats.min())
       << ",\"max\":" << json_number(stats.max()) << "}";
  }
  os << "}";

  // Recovery-latency percentiles from the merged "pil.recovery" monitor
  // (original send -> matched response of every recovered exchange).
  os << ",\"recovery\":";
  auto it = health.tasks.find("pil.recovery");
  if (it != health.tasks.end()) {
    os << "{\"recovered\":" << it->second.activations()
       << ",\"latency_us\":";
    util::json_histogram(os, it->second.response_us());
    os << "}";
  } else {
    os << "null";
  }

  // Flight-recorder evidence of the unrecovered runs: what tripped and
  // when (full dumps live in the per-run health JSON).
  os << ",\"unrecovered_dumps\":[";
  first = true;
  for (std::size_t index : unrecovered_runs) {
    const auto hit = unrecovered_health.find(index);
    if (hit == unrecovered_health.end()) continue;
    for (const auto& dump : hit->second.dumps) {
      if (!first) os << ",";
      first = false;
      os << "\n{\"run\":" << index << ",\"trigger\":\""
         << json_escape(dump.trigger) << "\",\"detail\":\""
         << json_escape(dump.detail)
         << "\",\"time_s\":" << json_number(sim::to_seconds(dump.time))
         << ",\"events\":" << dump.events.size() << "}";
    }
  }
  os << "]}\n";
  return os.str();
}

bool CampaignReport::write_json(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  os << to_json();
  return os.good();
}

std::string CampaignReport::summary() const {
  return util::format(
      "campaign %s: %zu runs, %llu faults injected (%llu opportunities), "
      "%llu unrecovered",
      name.c_str(), runs,
      static_cast<unsigned long long>(faults_injected),
      static_cast<unsigned long long>(fault_opportunities),
      static_cast<unsigned long long>(unrecovered));
}

}  // namespace iecd::fault
