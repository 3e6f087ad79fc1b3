#include "cosim/farm.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "fault/sites.hpp"
#include "obs/health_report.hpp"
#include "trace/metrics.hpp"

namespace iecd::cosim {

Topology make_farm_topology(const FarmConfig& config) {
  Topology topo;
  topo.name = "servo_farm";
  topo.buses.push_back(BusSpec{"can0", config.bitrate_bps});
  for (std::size_t i = 0; i < config.servo_count; ++i) {
    NodeSpec spec;
    spec.name = "servo" + std::to_string(i);
    spec.kind = NodeKind::kServo;
    spec.bus = "can0";
    spec.servo = config.servo;
    topo.nodes.push_back(std::move(spec));
  }
  NodeSpec sup;
  sup.name = "supervisor";
  sup.kind = NodeKind::kSupervisor;
  sup.bus = "can0";
  sup.supervisor.command_period_s = config.command_period_s;
  sup.supervisor.setpoint = config.setpoint;
  sup.supervisor.setpoint_time = config.setpoint_time;
  sup.supervisor.stale_timeout_s = config.stale_timeout_s;
  topo.nodes.push_back(std::move(sup));
  if (config.traffic_frames_per_s != 0.0) {
    NodeSpec chatter;
    chatter.name = "chatter";
    chatter.kind = NodeKind::kTraffic;
    chatter.bus = "can0";
    chatter.traffic.frames_per_s = config.traffic_frames_per_s;
    topo.nodes.push_back(std::move(chatter));
  }
  return topo;
}

ServoFarm::ServoFarm(const Topology& topology, const Options& options)
    : options_(options) {
  const std::size_t servo_total = topology.count(NodeKind::kServo);
  util::DiagnosticList rules;
  rules.require(std::isfinite(options_.duration_s) && options_.duration_s >= 0,
                "duration_s", "finite and >= 0", options_.duration_s);
  rules.require(servo_total <= kMaxServos, "servo_count", "<= 1280",
                static_cast<double>(servo_total));
  for (const BusSpec& spec : topology.buses) {
    rules.merge(SharedCanBus::validate(spec.bitrate_bps,
                                       spec.name + ".bitrate_bps"));
  }
  require_valid(topology.name, std::move(rules));

  std::map<std::string, SharedCanBus*> bus_by_name;
  for (const BusSpec& spec : topology.buses) {
    buses_.push_back(
        std::make_unique<SharedCanBus>(spec.name, spec.bitrate_bps));
    master_.add_coupling(*buses_.back());
    bus_by_name[spec.name] = buses_.back().get();
  }

  fault::FaultInjector* injector = options_.faults;
  std::size_t servo_index = 0;
  for (const NodeSpec& spec : topology.nodes) {
    auto it = bus_by_name.find(spec.bus);
    if (it == bus_by_name.end()) {
      throw std::invalid_argument("cosim topology: node " + spec.name +
                                  " references unknown bus " + spec.bus);
    }
    SharedCanBus& bus = *it->second;
    switch (spec.kind) {
      case NodeKind::kServo: {
        // Build-time fault draws, site "cosim.<node>": degrade first, then
        // kill — a fixed order per node, in topology order, so the
        // per-(run, site) streams are independent of everything else.
        ServoNodeConfig cfg = spec.servo;
        bool kill = false;
        double kill_frac = 0.0;
        if (injector != nullptr) {
          const fault::FaultPlan& plan = injector->plan();
          if (plan.node_degrade_rate > 0.0 || plan.node_kill_rate > 0.0) {
            auto& site = injector->site("cosim." + spec.name);
            if (site.fire(plan.node_degrade_rate)) {
              cfg.period_factor = std::max(1.0, plan.node_degrade_factor);
            }
            if (site.fire(plan.node_kill_rate)) {
              kill = true;
              // Early enough that the supervisor's staleness window closes
              // well before the end of the run.
              kill_frac = site.uniform(0.25, 0.7);
            }
          }
        }
        auto node =
            std::make_unique<ServoNode>(spec.name, servo_index, cfg, bus);
        if (kill) {
          node->kill_at(sim::from_seconds(kill_frac * options_.duration_s));
        }
        if (injector != nullptr) {
          fault::wire_encoder(*injector, node->encoder());
        }
        if (options_.monitors != nullptr) {
          node->set_monitor(&options_.monitors->timing(
              "cosim." + spec.name + ".loop",
              obs::TimingMonitor::Config{node->period_s(), node->period_s()}));
        }
        master_.add(*node);
        servos_.push_back(std::move(node));
        ++servo_index;
        break;
      }
      case NodeKind::kSupervisor: {
        if (supervisor_) {
          throw std::invalid_argument("cosim topology: multiple supervisors");
        }
        supervisor_ = std::make_unique<SupervisorNode>(
            spec.name, spec.supervisor, bus, servo_total);
        master_.add(*supervisor_);
        break;
      }
      case NodeKind::kTraffic: {
        traffic_.push_back(
            std::make_unique<TrafficGenNode>(spec.name, spec.traffic, bus));
        master_.add(*traffic_.back());
        break;
      }
    }
  }

  if (injector != nullptr) {
    for (auto& bus : buses_) fault::wire_can_bus(*injector, bus->can());
  }
  if (options_.monitors != nullptr) {
    for (auto& bus : buses_) options_.monitors->watch_can_bus(bus->can());
    if (!buses_.empty()) {
      options_.monitors->arm(buses_.front()->bus_world(),
                             sim::from_seconds(0.01));
    }
  }
}

FarmResult ServoFarm::run() {
  const sim::SimTime end = sim::from_seconds(options_.duration_s);
  const MasterStats stats = master_.run_until(end);
  for (const auto& node : servos_) node->encoder().flush();

  FarmResult result;
  result.negotiations = stats.negotiations;
  result.events_executed = stats.events_executed;
  if (!buses_.empty()) {
    result.frames_delivered = buses_.front()->can().stats().frames_delivered;
    result.bus_utilisation = buses_.front()->can().stats().utilisation(end);
  }
  std::set<std::size_t> stale_set;
  if (supervisor_) {
    const auto stale = supervisor_->stale_nodes(end);
    stale_set.insert(stale.begin(), stale.end());
    result.commands_sent = supervisor_->commands_sent();
    result.statuses_seen = supervisor_->statuses_seen();
  }
  for (const auto& gen : traffic_) result.traffic_frames += gen->sent();

  bool all_alive_settled = true;
  bool killed_detected = true;
  bool false_stale = false;
  double err_sum = 0.0;
  std::size_t alive = 0;
  for (const auto& node : servos_) {
    FarmNodeResult n;
    n.name = node->name();
    n.setpoint = node->setpoint();
    n.speed = node->current_speed();
    n.abs_error = std::fabs(n.speed - n.setpoint);
    n.settled =
        n.abs_error <= options_.settle_tolerance * std::max(n.setpoint, 1.0);
    n.killed = node->killed();
    n.degraded = node->degraded();
    n.stale = stale_set.count(node->index()) != 0;
    n.control_ticks = node->control_ticks();
    n.status_frames = node->status_frames_sent();
    n.commands_seen = node->command_frames_seen();
    if (n.killed) {
      ++result.killed_count;
      if (!n.stale) killed_detected = false;
    } else {
      ++alive;
      err_sum += n.abs_error;
      if (!n.settled) all_alive_settled = false;
      if (n.stale) false_stale = true;
    }
    if (n.degraded) ++result.degraded_count;
    result.nodes.push_back(std::move(n));
  }
  result.stale_count = stale_set.size();
  result.mean_abs_error = alive > 0 ? err_sum / static_cast<double>(alive) : 0;
  result.recovered = all_alive_settled && killed_detected && !false_stale;
  return result;
}

bool run_farm_campaign_run(const FarmConfig& config, fault::RunContext& ctx) {
  obs::MonitorHub hub;
  ServoFarm::Options options;
  options.duration_s = config.duration_s;
  options.settle_tolerance = config.settle_tolerance;
  options.faults = &ctx.injector;
  options.monitors = &hub;
  ServoFarm farm(make_farm_topology(config), options);
  const FarmResult result = farm.run();

  ctx.metrics.stats("campaign.tracking_error").add(result.mean_abs_error);
  auto& settled = ctx.metrics.counter("campaign.cosim.nodes_settled");
  for (const FarmNodeResult& n : result.nodes) {
    if (!n.killed && n.settled) ++settled.value;
  }
  ctx.metrics.counter("campaign.cosim.nodes").value += result.nodes.size();
  ctx.metrics.counter("campaign.cosim.killed").value += result.killed_count;
  ctx.metrics.counter("campaign.cosim.degraded").value +=
      result.degraded_count;
  ctx.metrics.counter("campaign.cosim.stale").value += result.stale_count;
  ctx.metrics.counter("campaign.cosim.frames").value +=
      result.frames_delivered;
  ctx.health.merge(hub.report("cosim"));
  return result.recovered;
}

fault::CampaignScenario make_farm_scenario(FarmConfig config) {
  return [config = std::move(config)](fault::RunContext& ctx) {
    return run_farm_campaign_run(config, ctx);
  };
}

}  // namespace iecd::cosim
