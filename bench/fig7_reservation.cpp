// Figure 7: predictability of image delivery using network reservation.
// 300 s of 1.2 Mbps MPEG-1 over the 10 Mbps bottleneck; 43.8 Mbps of load
// during t in [60, 120) s. Three configurations:
//   1. no adaptation                      (paper: almost all frames lost under load)
//   2. partial reservation + frame filter (paper: all I-frames delivered)
//   3. full reservation                   (paper: all frames delivered)
// Output: per-second frames sent / received series plus I-frame accounting.
//
// The three cases are independent trials on the shard-parallel experiment
// runner (--jobs N); output is identical for every worker count.
#include <iostream>

#include "common/reservation_scenario.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"

namespace {

using namespace aqm;
using namespace aqm::bench;

struct Case {
  const char* title;
  ReservationLevel level;
  bool filtering;
};

constexpr Case kCases[] = {
    {"Figure 7 case 1: no adaptation", ReservationLevel::None, false},
    {"Figure 7 case 2: partial reservation (670 kbps) + QuO frame filtering",
     ReservationLevel::Partial, true},
    {"Figure 7 case 3: full reservation (1.3 Mbps)", ReservationLevel::Full, false},
};

void print_case(const Case& c, const ReservationScenarioResult& r) {
  banner(c.title);
  TextTable series({"t(s)", "frames sent", "frames received"});
  // Print a readable subsample: every 5 s, denser around the load window.
  for (std::size_t i = 0; i < r.tx_per_second.size(); ++i) {
    const bool near_load = i >= 55 && i <= 130;
    if (!near_load && i % 10 != 0) continue;
    if (near_load && i % 5 != 0) continue;
    const auto rx = i < r.rx_per_second.size() ? r.rx_per_second[i].count : 0;
    series.row({fmt(r.tx_per_second[i].start.seconds(), 0),
                std::to_string(r.tx_per_second[i].count), std::to_string(rx)});
  }
  series.print();

  std::cout << "\n  frames sourced      : " << r.frames_sourced << "\n"
            << "  frames transmitted  : " << r.frames_transmitted << "\n"
            << "  frames received     : " << r.frames_received << "\n"
            << "  decodable frames    : " << r.frames_decodable << "\n"
            << "  I-frames sent/recv  : " << r.i_frames_transmitted << " / "
            << r.i_frames_received << "\n"
            << "  under load          : " << r.received_under_load << " of "
            << r.sent_under_load << " transmitted frames delivered ("
            << fmt(r.delivered_percent_under_load(), 1) << "%)\n";
  if (!r.contract_history.empty()) {
    std::cout << "  QuO contract transitions:\n";
    for (const auto& [t, level_name] : r.contract_history) {
      std::cout << "    t=" << fmt(t.seconds(), 1) << "s -> " << level_name << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = core::parse_experiment_options(argc, argv, core::kNoSidecars);

  core::Experiment<ReservationScenarioResult> exp;
  for (const Case& c : kCases) {
    ReservationScenarioConfig cfg;
    cfg.reservation = c.level;
    cfg.frame_filtering = c.filtering;
    exp.add(c.title, kReservationScenarioSeed, [cfg](const core::TrialSpec& spec) {
      return run_reservation_scenario(cfg, spec);
    });
  }
  const auto results = exp.run(opts);

  for (std::size_t i = 0; i < results.size(); ++i) print_case(kCases[i], results[i]);
  std::cout << "\nShape check vs paper: case 1 loses almost everything under load;\n"
            << "case 2 keeps delivering the full-content (I) frames; case 3 delivers\n"
            << "essentially all frames.\n";
  return 0;
}
