/// \file farm.hpp
/// The networked servo farm — the co-simulation flagship: N full-fidelity
/// servo nodes and one lightweight supervisor on a shared CAN bus,
/// optionally stressed by background chatter.  Each servo runs its own
/// local speed loop against its own motor; the supervisor broadcasts the
/// set-point and watches per-node status freshness.  ServoFarm builds the
/// live system from a declarative Topology, wires fault sites
/// (bus frame faults, per-node encoder glitches, node kill/degrade from
/// the plan's cosim.* rates) and per-node timing monitors, runs the
/// master, and folds a FarmResult.
///
/// make_farm_scenario adapts a FarmConfig into a fault::CampaignScenario,
/// so farms run under campaign::CampaignEngine unchanged — per-(run,
/// site) fault streams, index-order merge, evidence artifacts and
/// thread-count-invariant reports all included.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cosim/master.hpp"
#include "cosim/nodes.hpp"
#include "cosim/topology.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "obs/monitor.hpp"

namespace iecd::cosim {

struct FarmConfig {
  /// Servo node count; total bus nodes = servo_count + 1 supervisor
  /// (+ 1 chatter node when traffic_frames_per_s > 0).
  std::size_t servo_count = 15;
  std::uint32_t bitrate_bps = 500000;
  double duration_s = 1.0;
  double setpoint = 100.0;  ///< [rad/s]
  double setpoint_time = 0.05;
  /// Background chatter at the high-priority E10 ID (0 = none; any other
  /// rate must pass TrafficGenNode::validate or the farm throws).
  double traffic_frames_per_s = 0.0;
  /// Template for every servo node's controller.
  ServoNodeConfig servo;
  double command_period_s = 0.01;
  double stale_timeout_s = 0.05;
  /// A node counts as settled when |speed - setpoint| <= tolerance *
  /// max(setpoint, 1).
  double settle_tolerance = 0.05;
};

/// The farm's declarative description: one bus, servo_count ServoNodes,
/// one supervisor, optional chatter — in that order (fixed node indices).
Topology make_farm_topology(const FarmConfig& config);

struct FarmNodeResult {
  std::string name;
  double setpoint = 0.0;  ///< last commanded set-point the node saw
  double speed = 0.0;     ///< true shaft speed at end of run
  double abs_error = 0.0;
  bool settled = false;
  bool killed = false;
  bool degraded = false;
  bool stale = false;  ///< supervisor's staleness verdict
  std::uint64_t control_ticks = 0;
  std::uint64_t status_frames = 0;
  std::uint64_t commands_seen = 0;
};

struct FarmResult {
  std::vector<FarmNodeResult> nodes;
  std::uint64_t commands_sent = 0;
  std::uint64_t statuses_seen = 0;
  std::uint64_t traffic_frames = 0;
  std::uint64_t frames_delivered = 0;
  double bus_utilisation = 0.0;
  std::uint64_t events_executed = 0;
  std::uint64_t negotiations = 0;
  std::size_t killed_count = 0;
  std::size_t degraded_count = 0;
  std::size_t stale_count = 0;
  /// Mean |speed - setpoint| over the alive (non-killed) nodes.
  double mean_abs_error = 0.0;
  /// Recovered = every alive node settled, every killed node detected
  /// stale by the supervisor, and no alive node falsely flagged stale.
  bool recovered = false;
};

class ServoFarm {
 public:
  struct Options {
    double duration_s = 1.0;
    double settle_tolerance = 0.05;
    fault::FaultInjector* faults = nullptr;   ///< optional, per run
    obs::MonitorHub* monitors = nullptr;      ///< optional, per run
  };

  /// Builds the live system in topology order.  Fault sites consulted at
  /// build time (node kill/degrade draws) use site "cosim.<node name>",
  /// in node order — independent of everything else in the run.  Throws
  /// std::runtime_error naming the field for a non-finite or negative
  /// duration_s, more than kMaxServos servos, or a bus bit rate
  /// SharedCanBus::validate rejects.
  ServoFarm(const Topology& topology, const Options& options);

  Master& master() { return master_; }
  const std::vector<std::unique_ptr<ServoNode>>& servos() const {
    return servos_;
  }
  SupervisorNode* supervisor() { return supervisor_.get(); }

  /// Runs the master to options.duration_s and folds the result.
  FarmResult run();

 private:
  Options options_;
  std::vector<std::unique_ptr<SharedCanBus>> buses_;
  std::vector<std::unique_ptr<ServoNode>> servos_;
  std::unique_ptr<SupervisorNode> supervisor_;
  std::vector<std::unique_ptr<TrafficGenNode>> traffic_;
  Master master_;
};

/// One farm campaign run: builds a farm for ctx's injector, runs it, and
/// records campaign.* metrics (tracking-error stats, settled/killed/
/// degraded/stale counters) plus the per-node health report.  Returns the
/// farm's recovered verdict.
bool run_farm_campaign_run(const FarmConfig& config, fault::RunContext& ctx);

/// Closure form for campaign::CampaignEngine::run.
fault::CampaignScenario make_farm_scenario(FarmConfig config);

}  // namespace iecd::cosim
