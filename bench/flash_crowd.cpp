// Flash crowd vs the adaptation loop: flow A's offered load steps from
// 1.5 Mbps to 4.5 Mbps at t=6 s while its reservation was admitted at
// 2 Mbps and the bottleneck's best-effort service is drowned by the
// 43.8 Mbps load source. Two trials over the identical arrival curve:
//   static    — reservations keep their admission-time rates; the excess
//               rides best effort and is lost for the rest of the run
//               (sustained drop-rate SLO breach).
//   feedback  — the FeedbackScheduler reads each flow's windowed drop
//               rate from the TelemetryHub every 500 ms epoch and
//               re-divides the bottleneck HTB pool proportional to
//               deficit, re-stamping the live reservations in place; the
//               SLO breaches at the step and recovers within a few epochs.
//
// Both trials run on the shard-parallel experiment runner (--jobs N);
// output is identical for every worker count.
#include <iostream>

#include "common/flash_crowd.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"

namespace {

using namespace aqm;
using namespace aqm::bench;

void print_case(const char* title, const FlashCrowdResult& r) {
  banner(title);
  TextTable table({"flow", "sent", "delivered", "post-step delivery%", "breaches",
                   "recoveries", "breached(s)", "breached at end"});
  table.row({"A (crowd)", std::to_string(r.a_sent), std::to_string(r.a_received),
             fmt(100.0 * r.a_post_step_delivery, 1), std::to_string(r.a_breaches),
             std::to_string(r.a_recoveries),
             fmt(static_cast<double>(r.a_breached_ns) / 1e9, 1),
             r.a_breached_at_end ? "yes" : "no"});
  table.row({"B (steady)", std::to_string(r.b_sent), std::to_string(r.b_received), "-",
             "-", "-", "-", "-"});
  table.print();
  if (r.epochs_run > 0) {
    std::cout << "  controller: " << r.epochs_run << " epochs, "
              << r.restamps_applied << " re-stamps applied\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = core::parse_experiment_options(argc, argv, core::kNoSidecars);

  core::Experiment<FlashCrowdResult> exp;
  for (const bool feedback : {false, true}) {
    FlashCrowdConfig cfg;
    cfg.feedback = feedback;
    exp.add(feedback ? "flash-crowd-feedback" : "flash-crowd-static", kFlashCrowdLoadSeed,
            [cfg](const core::TrialSpec&) { return run_flash_crowd(cfg); });
  }
  const auto results = exp.run(opts);

  print_case("Flash crowd, static policy", results[0]);
  print_case("Flash crowd, feedback control", results[1]);
  std::cout << "\nShape check: the static run breaches at the step and never\n"
            << "recovers; the feedback run breaches, then the controller grows\n"
            << "flow A's HTB share and the SLO recovers while the crowd is\n"
            << "still arriving.\n";
  return 0;
}
