// Fault tour: the fault-injection & robustness subsystem (src/fault/) on
// the DC-servo case study, in four acts.
//
//   1. A single reproducible fault: one FaultInjector, one site, the
//      exact same fault sequence on every replay of (seed, site).
//   2. A lossy PIL link WITHOUT recovery: serial byte faults and frame
//      truncation eat exchanges; the loop degrades unprotected.
//   3. The same seed WITH the timeout/retransmit recovery layer: the host
//      retransmits through every loss (the board answers duplicates from
//      its response cache without re-stepping the controller) and the
//      degradation collapses.
//   4. A deterministic campaign: campaign::CampaignEngine fans N runs
//      over worker threads and folds them in index order — the
//      CAMPAIGN_fault_tour.json report is byte-identical for any thread
//      count.
//
// A FaultInjector with an all-zero plan wires nothing: such a run is
// bit-identical to one with no fault subsystem attached
// (tests/fault_test.cpp locks that bit-for-bit).
#include <cstdio>
#include <string>

#include "campaign/engine.hpp"
#include "core/case_study.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/sites.hpp"
#include "obs/monitor.hpp"

using namespace iecd;

namespace {

core::ServoConfig tour_config() {
  core::ServoConfig cfg;
  cfg.duration_s = 0.3;
  cfg.setpoint_time = 0.02;
  return cfg;
}

void act_one_reproducible_fault() {
  std::printf("=== 1. one fault, reproducible in isolation ===\n\n");

  fault::FaultPlan plan;
  plan.serial_corrupt_rate = 0.01;
  for (int replay = 0; replay < 2; ++replay) {
    fault::FaultInjector injector(fault::run_seed(42, 0),
                                  plan);
    auto& site = injector.site("serial.rs232.a2b");
    std::printf("replay %d, first byte indices hit:", replay);
    int hits = 0;
    for (int byte = 0; byte < 2000 && hits < 6; ++byte) {
      if (site.fire(plan.serial_corrupt_rate)) {
        std::printf(" %d", byte);
        ++hits;
      }
    }
    std::printf("\n");
  }
  std::printf("same (seed, site) -> same sequence, independent of every "
              "other site.\n\n");
}

double run_pil(bool with_faults, bool with_recovery, const char* label) {
  core::ServoSystem servo(tour_config());
  fault::FaultInjector injector(fault::run_seed(42, 1),
                                fault::FaultPlan::defaults().scaled(2.0));
  core::ServoSystem::PilRunOptions opts;
  opts.baud = 1000000;  // RTT must fit inside the period for retransmits
  if (with_faults) opts.faults = &injector;
  opts.recovery.enabled = with_recovery;
  const auto result = servo.run_pil(opts);

  const auto count = [&](const char* name) {
    const auto* c = result.report.metrics.find_counter(name);
    return c ? c->value : 0;
  };
  std::printf("%-22s IAE %.3f  crc_err %llu  retrans %llu  recovered %llu  "
              "abandoned %llu  dup %llu\n",
              label, result.iae,
              static_cast<unsigned long long>(result.report.crc_errors),
              static_cast<unsigned long long>(count("pil.retransmits")),
              static_cast<unsigned long long>(
                  count("pil.recovered_exchanges")),
              static_cast<unsigned long long>(
                  count("pil.exchanges_abandoned")),
              static_cast<unsigned long long>(count("pil.duplicate_frames")));
  return result.iae;
}

void act_two_three_lossy_link() {
  std::printf("=== 2+3. lossy PIL link, without vs with recovery ===\n\n");
  const double clean = run_pil(false, false, "clean:");
  const double unprotected = run_pil(true, false, "faults, no recovery:");
  const double recovered = run_pil(true, true, "faults + recovery:");
  std::printf("\nIAE ratio vs clean: unprotected %.3f, recovered %.3f\n\n",
              unprotected / clean, recovered / clean);
}

void act_four_campaign() {
  std::printf("=== 4. deterministic campaign ===\n\n");

  // No evidence directory: the engine returns the report and writes no
  // per-run artifacts.
  campaign::EngineOptions eo;
  eo.campaign.name = "fault_tour";
  eo.campaign.seed = 42;
  eo.campaign.runs = 4;
  eo.campaign.threads = 4;
  eo.campaign.plan = fault::FaultPlan::defaults();
  const fault::CampaignScenario pil_run = [](fault::RunContext& ctx) {
    core::ServoSystem servo(tour_config());
    obs::MonitorHub hub;
    core::ServoSystem::PilRunOptions run;
    run.baud = 1000000;
    run.faults = &ctx.injector;
    run.monitors = &hub;
    run.recovery.enabled = true;
    const auto result = servo.run_pil(run);
    ctx.metrics.merge(result.report.metrics);
    ctx.metrics.stats("campaign.iae").add(result.iae);
    ctx.health.merge(hub.report("pil"));
    const auto* abandoned =
        result.report.metrics.find_counter("pil.exchanges_abandoned");
    return abandoned == nullptr || abandoned->value == 0;
  };
  const fault::CampaignReport report =
      campaign::CampaignEngine(eo).run(pil_run).report;

  std::printf("%s\n", report.summary().c_str());
  std::printf("per-site injections:\n");
  for (const auto& [name, counter] : report.merged.counters()) {
    if (name.rfind("fault.", 0) == 0 &&
        name.size() > 9 && name.compare(name.size() - 9, 9, ".injected") == 0) {
      std::printf("  %-28s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(counter.value));
    }
  }
  report.write_json("CAMPAIGN_fault_tour.json");
  std::printf("wrote CAMPAIGN_fault_tour.json (byte-identical for any "
              "thread count)\n\n");
}

}  // namespace

int main() {
  std::printf("IECD fault tour: deterministic fault campaigns across link, "
              "MCU, plant and PIL layers\n\n");
  act_one_reproducible_fault();
  act_two_three_lossy_link();
  act_four_campaign();
  return 0;
}
