// Figure 5: thread priority alone. Sender 1 high / sender 2 low RT-CORBA
// priority mapped to receiver-host thread priorities; competing CPU load on
// the receiver; no network management (no DSCP).
//
// Paper shape: (a) without cross traffic the high-priority task exhibits
// significantly lower latency; (b) with cross traffic the network is the
// bottleneck and thread priorities cannot maintain QoS — both streams
// become unpredictable.
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

  PriorityScenarioConfig base;
  base.duration = seconds(30);
  // 30'000 maps to a high native thread priority, 1'000 to a low one.
  base.sender1_policy = PolicyBuilder::sender(core::kFlowSender1, 30'000);
  base.sender2_policy = PolicyBuilder::sender(core::kFlowSender2, 1'000);
  base.cpu_load = true;            // load lands between the two

  PriorityScenarioConfig congested = base;
  congested.cross_traffic = true;

  core::Experiment<PriorityScenarioResult> exp;
  exp.add("fig5a-quiet-net", kPriorityScenarioSeed,
          [base](const core::TrialSpec& spec) { return run_priority_scenario(base, spec); });
  exp.add("fig5b-congested", kPriorityScenarioSeed,
          [congested](const core::TrialSpec& spec) {
            return run_priority_scenario(congested, spec);
          });
  const auto results = exp.run(opts);
  const auto& a = results[0];
  const auto& b = results[1];

  banner("Figure 5(a): thread priorities + CPU load, no cross traffic");
  print_latency_series(a, seconds(2), TimePoint{seconds(30).ns()});
  print_summary("Figure 5(a) summary", a);

  banner("Figure 5(b): thread priorities + CPU load + 16 Mbps cross traffic");
  print_latency_series(b, seconds(2), TimePoint{seconds(30).ns()});
  print_summary("Figure 5(b) summary", b);

  const auto a1 = a.s1_stats();
  const auto a2 = a.s2_stats();
  const auto b1 = b.s1_stats();
  std::cout << "\nShape check vs paper:\n"
            << "  (a) high-prio mean " << fmt(a1.mean()) << " ms vs low-prio mean "
            << fmt(a2.mean()) << " ms (" << fmt(a2.mean() / std::max(0.001, a1.mean()), 1)
            << "x)\n"
            << "  (b) even the high-prio stream degrades: mean " << fmt(b1.mean())
            << " ms, max " << fmt(b1.max()) << " ms — thread priority cannot fix a"
            << " network bottleneck\n";
  return 0;
}
