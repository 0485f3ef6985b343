// Ablation: which mechanism buys what, as contention grows. Sweeps the
// cross-traffic rate and compares four end-to-end policies for the two
// video senders under simultaneous CPU load:
//   none        — best effort everywhere (Fig 4 regime)
//   thread-prio — RT-CORBA -> thread priorities only (Fig 5 regime)
//   dscp        — network DSCP marking only
//   combined    — thread priorities + DSCP (Fig 6 regime)
// This extends the paper's Figures 4-6 into a single contention sweep.
//
// The 20 (cross rate x policy) cells are independent trials on the
// shard-parallel experiment runner (--jobs N); the table is assembled in
// sweep order afterwards, so output is byte-identical for every worker
// count.
#include <iostream>

#include "common/priority_scenario.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"

int main(int argc, char** argv) {
  using namespace aqm;
  using namespace aqm::bench;

  const auto opts = core::parse_experiment_options(argc, argv, core::kNoSidecars);

  banner("Ablation: policy x cross-traffic sweep (sender 1 = high priority)");

  const double cross_rates[] = {4e6, 8e6, 12e6, 16e6, 24e6};
  struct Policy {
    const char* name;
    bool thread_prio;
    bool dscp;
  };
  const Policy policies[] = {
      {"none", false, false},
      {"thread-prio", true, false},
      {"dscp", false, true},
      {"combined", true, true},
  };

  struct Cell {
    double cross;
    const Policy* policy;
  };
  std::vector<Cell> cells;
  core::Experiment<PriorityScenarioResult> exp;
  for (const double cross : cross_rates) {
    for (const auto& p : policies) {
      PriorityScenarioConfig cfg;
      cfg.duration = seconds(15);
      cfg.cross_traffic = true;
      cfg.cpu_load = true;
      // Identical router hardware across policies; only the control knobs
      // differ. Thread priority via the CORBA priority mapping; network
      // priority via an explicit EF protocol property (so "dscp" does NOT
      // silently raise the thread priority too).
      cfg.diffserv_router = true;
      auto s1 = PolicyBuilder::sender(core::kFlowSender1, p.thread_prio ? 30'000 : 1'000);
      if (p.dscp) s1.dscp(net::dscp::kEf);
      cfg.sender1_policy = s1;
      cfg.sender2_policy = PolicyBuilder::sender(core::kFlowSender2, 1'000);
      cfg.cross_rate_bps = cross;
      cells.push_back({cross, &p});
      exp.add(std::string("cross-") + fmt(cross / 1e6, 0) + "-" + p.name,
              kPriorityScenarioSeed,
              [cfg](const core::TrialSpec& spec) { return run_priority_scenario(cfg, spec); });
    }
  }
  const auto results = exp.run(opts);

  TextTable table({"cross(Mbps)", "policy", "s1 mean(ms)", "s1 stddev", "s1 loss%",
                   "s2 mean(ms)", "s2 loss%"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const auto s1 = r.s1_stats();
    const auto s2 = r.s2_stats();
    const double loss1 =
        100.0 * (1.0 - static_cast<double>(r.s1_received) /
                           static_cast<double>(std::max<std::uint64_t>(1, r.s1_sent)));
    const double loss2 =
        100.0 * (1.0 - static_cast<double>(r.s2_received) /
                           static_cast<double>(std::max<std::uint64_t>(1, r.s2_sent)));
    table.row({fmt(cells[i].cross / 1e6, 0), cells[i].policy->name, fmt(s1.mean()),
               fmt(s1.stddev()), fmt(loss1, 1), fmt(s2.mean()), fmt(loss2, 1)});
  }
  std::cout << "\n";
  table.print();
  std::cout << "\nReading: once the offered load exceeds the 10 Mbps bottleneck,\n"
            << "'none' and 'thread-prio' collapse; 'dscp' and 'combined' keep the\n"
            << "marked stream flat, and only 'combined' also bounds the receiver-\n"
            << "host processing delay (visible at low cross rates).\n";
  return 0;
}
