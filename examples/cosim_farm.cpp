// The 16-node networked servo farm on the co-simulation master: 15
// full-fidelity servo nodes (each its own MCU, quadrature decoder, PWM,
// CAN controller and local motor) plus one lightweight supervisor model,
// all on one shared CAN bus.  The master's step-negotiation loop advances
// every component to the global minimum horizon and exchanges bus frames
// at the boundaries, so the composed system behaves exactly like one
// monolithic simulation — at composition-friendly structure.
//
// The second half re-runs the farm under a fault campaign (node kills,
// clock degradation, bus corruption, encoder glitches) and shows the
// supervisor detecting killed nodes through status staleness.
#include <cstdio>

#include "campaign/engine.hpp"
#include "cosim/farm.hpp"
#include "fault/campaign.hpp"

using namespace iecd;

int main() {
  cosim::FarmConfig cfg;
  cfg.servo_count = 15;  // + 1 supervisor = 16 bus nodes
  cfg.duration_s = 0.5;
  cfg.traffic_frames_per_s = 500.0;

  std::printf("Servo farm: %zu servo nodes + supervisor on one %u bit/s "
              "CAN bus\n\n",
              cfg.servo_count, cfg.bitrate_bps);

  cosim::ServoFarm farm(cosim::make_farm_topology(cfg),
                        {cfg.duration_s, cfg.settle_tolerance, nullptr,
                         nullptr});
  const cosim::FarmResult clean = farm.run();
  std::printf("clean run: %s, mean |err| %.4f rad/s, bus %.1f %% busy\n",
              clean.recovered ? "every node settled" : "NOT recovered",
              clean.mean_abs_error, clean.bus_utilisation * 100.0);
  std::printf("  %llu negotiations, %llu events, %llu commands, %llu "
              "status frames\n",
              static_cast<unsigned long long>(clean.negotiations),
              static_cast<unsigned long long>(clean.events_executed),
              static_cast<unsigned long long>(clean.commands_sent),
              static_cast<unsigned long long>(clean.statuses_seen));
  for (std::size_t i = 0; i < 3 && i < clean.nodes.size(); ++i) {
    const auto& n = clean.nodes[i];
    std::printf("  %-8s speed %7.2f rad/s, %4llu ticks, %3llu statuses\n",
                n.name.c_str(), n.speed,
                static_cast<unsigned long long>(n.control_ticks),
                static_cast<unsigned long long>(n.status_frames));
  }
  std::printf("  ... (%zu nodes total)\n\n", clean.nodes.size());

  std::printf("default fault plan, 8 campaign runs (kills, degrades, bus "
              "corruption):\n");
  campaign::EngineOptions eo;
  eo.campaign.name = "farm_demo";
  eo.campaign.seed = 42;
  eo.campaign.runs = 8;
  eo.campaign.threads = 2;
  eo.campaign.plan = fault::FaultPlan::defaults();
  const fault::CampaignReport report =
      campaign::CampaignEngine(eo).run(cosim::make_farm_scenario(cfg)).report;
  std::printf("  %llu faults injected across %zu runs, %llu unrecovered\n",
              static_cast<unsigned long long>(report.faults_injected),
              eo.campaign.runs,
              static_cast<unsigned long long>(report.unrecovered));
  const auto* killed = report.merged.find_counter("campaign.cosim.killed");
  const auto* stale = report.merged.find_counter("campaign.cosim.stale");
  if (killed && stale) {
    std::printf("  %llu nodes killed, %llu flagged stale by the "
                "supervisor\n",
                static_cast<unsigned long long>(killed->value),
                static_cast<unsigned long long>(stale->value));
  }
  std::printf("  recovered = alive nodes settled AND killed nodes "
              "detected stale\n");
  return 0;
}
