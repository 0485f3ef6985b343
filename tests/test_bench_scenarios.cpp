// The shared scenario runners behind the figure drivers (bench/common/).
#include <gtest/gtest.h>

#include "common/priority_scenario.hpp"
#include "core/experiment.hpp"

namespace aqm::bench {
namespace {

// fig4-6 declare no sidecars, yet their summary tables print each
// sender's network drops and jitter: the receiver-side monitor that
// measures them must be installed for every run, not only for runs that
// write a sidecar.
TEST(PriorityScenario, SummaryCountsNetworkDropsAndJitterWithoutSidecars) {
  PriorityScenarioConfig cfg;
  cfg.duration = seconds(5);
  cfg.cross_traffic = true;
  core::TrialSpec spec;
  spec.seed = kPriorityScenarioSeed;
  const PriorityScenarioResult r = run_priority_scenario(cfg, spec);
  ASSERT_GT(r.s1_sent, r.s1_received);
  EXPECT_GT(r.s1_dropped, 0u);
  EXPECT_LE(r.s1_dropped, r.s1_sent - r.s1_received);
  EXPECT_GT(r.s1_jitter_ms, 0.0);
}

}  // namespace
}  // namespace aqm::bench
