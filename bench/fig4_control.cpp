// Figure 4: control runs. Two video senders with equal priorities, no
// network management; (a) idle network, (b) 16 Mbps cross traffic through
// the 10 Mbps bottleneck.
//
// Paper shape: (a) flat ~1.5 ms latency; (b) latency fluctuating wildly
// between a few milliseconds and over a second, with heavy loss.
//
// The two runs are independent trials on the shard-parallel experiment
// runner (--jobs N); output is byte-identical for every worker count.
#include <iostream>

#include "common/priority_scenario.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"

int main(int argc, char** argv) {
  using namespace aqm;
  using namespace aqm::bench;

  const auto opts = core::parse_experiment_options(argc, argv, core::kNoSidecars);

  PriorityScenarioConfig idle;
  idle.duration = seconds(30);
  PriorityScenarioConfig congested = idle;
  congested.cross_traffic = true;

  core::Experiment<PriorityScenarioResult> exp;
  exp.add("fig4a-idle", kPriorityScenarioSeed,
          [idle](const core::TrialSpec& spec) { return run_priority_scenario(idle, spec); });
  exp.add("fig4b-congested", kPriorityScenarioSeed,
          [congested](const core::TrialSpec& spec) {
            return run_priority_scenario(congested, spec);
          });
  const auto results = exp.run(opts);
  const auto& idle_result = results[0];
  const auto& congested_result = results[1];

  banner("Figure 4(a): equal priorities, no DSCP, no cross traffic");
  print_latency_series(idle_result, seconds(2), TimePoint{seconds(30).ns()});
  print_summary("Figure 4(a) summary", idle_result);

  banner("Figure 4(b): equal priorities, no DSCP, 16 Mbps cross traffic");
  print_latency_series(congested_result, seconds(2), TimePoint{seconds(30).ns()});
  print_summary("Figure 4(b) summary", congested_result);

  const auto a = idle_result.s1_stats();
  const auto b = congested_result.s1_stats();
  std::cout << "\nShape check vs paper:\n"
            << "  (a) flat low latency:      mean " << fmt(a.mean()) << " ms, stddev "
            << fmt(a.stddev()) << " ms\n"
            << "  (b) unpredictable latency: mean " << fmt(b.mean()) << " ms, max "
            << fmt(b.max()) << " ms ("
            << fmt(b.max() / std::max(1.0, a.mean()), 0) << "x the idle mean)\n";
  return 0;
}
