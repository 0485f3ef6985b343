// city_scale: the million-flow substrate driver (DESIGN.md §10).
//
// Sweeps one simulated "city" fabric — H sender hosts spread over M edge
// routers, all funneling through a core router into one sink — from ~1k to
// ~256k concurrent flows, with EF reservations installed for every 8th
// flow on both IntServ egress stages (edge->core and core->sink). This is
// the workload the flat flow tables exist for: hundreds of thousands of
// reservations live on a single egress queue while packets from across the
// whole id space interleave at the fan-in point.
//
// One variant trial re-runs the 32k configuration with the hierarchical
// policing parent enabled on the core egress, capping the reserved
// aggregate below the sum of the children — the per-class parent bucket in
// action (two bucket touches per packet regardless of sibling count).
//
// Trials fan out over the shard-parallel experiment runner (--jobs N); the
// table is assembled from results in case order, so the output is
// byte-identical for every worker count — which CI exercises, since every
// number below ultimately comes out of the hashed flow tables through
// their deterministic ordered snapshots.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "net/network.hpp"
#include "net/queue.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aqm;

struct CityConfig {
  std::size_t edge_routers = 4;
  std::size_t hosts = 64;            // senders, spread round-robin over edges
  std::size_t flows_per_host = 16;   // total flows = hosts * flows_per_host
  int packets_per_flow = 8;
  double parent_rate_bps = 0.0;      // > 0: HTB parent on the core egress
};

struct CityResult {
  std::uint64_t n_flows = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t reserved_sent = 0;
  std::uint64_t reserved_delivered = 0;
  double core_reserved_rate_bps = 0.0;
  std::uint64_t core_dropped = 0;
  // End-to-end latency sums at the sink (ns), split reserved vs. the rest.
  std::int64_t reserved_latency_ns = 0;
  std::int64_t other_latency_ns = 0;
  obs::TrialObs obs;  // --metrics and --slo (drop-rate SLOs) sidecars

  [[nodiscard]] double reserved_latency_ms() const {
    return reserved_delivered == 0
               ? 0.0
               : static_cast<double>(reserved_latency_ns) / 1e6 /
                     static_cast<double>(reserved_delivered);
  }
  [[nodiscard]] double other_latency_ms() const {
    const std::uint64_t n = delivered - reserved_delivered;
    return n == 0 ? 0.0
                  : static_cast<double>(other_latency_ns) / 1e6 /
                        static_cast<double>(n);
  }
};

bool is_reserved(net::FlowId f) { return (f - 1) % 8 == 0; }

CityResult run_city(const CityConfig& cfg, unsigned sidecars) {
  sim::Engine engine;
  engine.reserve(1 << 16);
  net::Network net(engine);

  const net::NodeId core = net.add_node("core");
  const net::NodeId sink = net.add_node("sink");
  std::vector<net::NodeId> edges;
  for (std::size_t m = 0; m < cfg.edge_routers; ++m) {
    edges.push_back(net.add_node("edge" + std::to_string(m)));
  }
  std::vector<net::NodeId> hosts;
  for (std::size_t h = 0; h < cfg.hosts; ++h) {
    hosts.push_back(net.add_node("host" + std::to_string(h)));
  }

  const auto make_intserv = [&cfg](bool is_core) -> std::unique_ptr<net::Queue> {
    net::IntServQueue::Config qc;
    qc.best_effort_capacity = 4'096;
    if (is_core && cfg.parent_rate_bps > 0.0) {
      qc.parent_rate_bps = cfg.parent_rate_bps;
    }
    return std::make_unique<net::IntServQueue>(qc);
  };

  net::LinkConfig host_up;
  host_up.bandwidth_bps = 100e6;
  net::LinkConfig edge_up;
  edge_up.bandwidth_bps = 1e9;
  // The core uplink is the deliberate bottleneck: every configuration
  // offers far more than 30 Mbps at the fan-in, so best effort sheds load
  // there while reserved flows ride the guaranteed queues through.
  net::LinkConfig core_up;
  core_up.bandwidth_bps = 30e6;
  for (std::size_t h = 0; h < cfg.hosts; ++h) {
    net.add_link(hosts[h], edges[h % cfg.edge_routers], host_up);
  }
  std::vector<net::IntServQueue*> edge_egress;
  for (const net::NodeId e : edges) {
    auto q = make_intserv(false);
    edge_egress.push_back(static_cast<net::IntServQueue*>(q.get()));
    net.add_link(e, core, edge_up, std::move(q));
  }
  auto core_q = make_intserv(true);
  net::IntServQueue& core_egress = *static_cast<net::IntServQueue*>(core_q.get());
  net.add_link(core, sink, core_up, std::move(core_q));

  // Reservations: every 8th flow is EF with a guaranteed rate, installed on
  // both IntServ stages its packets cross. The installs bypass RSVP
  // admission, so past 1k flows they over-commit the core uplink (see the
  // Notes). Each install is one flow-table insert: the reserved-rate sum is
  // summed only when RSVP admission asks for it, and nothing here does.
  const std::uint64_t n_flows = cfg.hosts * cfg.flows_per_host;
  const TimePoint t0 = TimePoint::zero();
  for (std::uint64_t f = 1; f <= n_flows; f += 8) {
    const std::size_t host = static_cast<std::size_t>((f - 1) / cfg.flows_per_host);
    edge_egress[host % cfg.edge_routers]->install_reservation(f, 50e3, 16'000, t0);
    core_egress.install_reservation(f, 50e3, 16'000, t0);
  }

  // Drop-rate SLOs on 64 monitors spread across the id space, so they land
  // on hosts over the whole burst stagger — late hosts hit the saturated
  // core uplink and their best-effort monitors breach.
  core::TrialObserver observer(engine, sidecars);
  if (obs::TelemetryHub* hub = observer.hub()) {
    obs::SloSpec slo;
    slo.max_drop_rate = 0.05;
    const std::uint64_t stride = n_flows < 64 ? 1 : n_flows / 64;
    for (std::uint64_t f = 1; f <= n_flows; f += stride) {
      hub->set_slo(f, slo);
    }
  }

  CityResult out;
  net.set_receiver(sink, [&engine, &out](net::Packet&& p) {
    const std::int64_t lat = (engine.now() - p.sent_at).ns();
    (is_reserved(p.flow) ? out.reserved_latency_ns : out.other_latency_ns) += lat;
  });

  // Each host bursts its flows round-robin, hosts staggered across one
  // second so the fan-in stages see interleaved ids from the whole space.
  out.n_flows = n_flows;
  for (std::size_t h = 0; h < cfg.hosts; ++h) {
    const TimePoint start =
        TimePoint::zero() + microseconds(static_cast<std::int64_t>(
                                1 + (h * 1'000'000) / cfg.hosts));
    const net::NodeId src = hosts[h];
    engine.at(start, [&net, &cfg, h, src, sink] {
      for (int round = 0; round < cfg.packets_per_flow; ++round) {
        for (std::size_t j = 0; j < cfg.flows_per_host; ++j) {
          const auto f =
              static_cast<net::FlowId>(h * cfg.flows_per_host + j + 1);
          net::Packet p;
          p.dst = sink;
          p.flow = f;
          p.seq = static_cast<std::uint64_t>(round);
          p.size_bytes = 700;
          p.dscp = is_reserved(f)  ? net::dscp::kEf
                   : j % 3 == 0    ? net::dscp::kAf11
                                   : net::dscp::kBestEffort;
          net.send(src, std::move(p));
        }
      }
    });
  }
  engine.run();

  out.sent = net.totals().sent;
  out.delivered = net.totals().delivered;
  out.dropped = net.totals().dropped;
  for (std::uint64_t f = 1; f <= n_flows; f += 8) {
    out.reserved_sent += net.flow(f).sent;
    out.reserved_delivered += net.flow(f).delivered;
  }
  out.core_reserved_rate_bps = core_egress.reserved_rate_bps();
  out.core_dropped = core_egress.stats().dropped;

  if (observer.wants(core::kMetricsSidecar)) {
    // Totals plus a probe flow per traffic class (full per-flow export at
    // 256k flows would be a ~1.5M-line sidecar).
    obs::MetricsRegistry reg;
    const auto emit = [&reg](const std::string& base, const net::FlowCounters& c) {
      reg.counter(base + ".sent").set(c.sent);
      reg.counter(base + ".delivered").set(c.delivered);
      reg.counter(base + ".dropped").set(c.dropped);
      reg.counter(base + ".sent_bytes").set(c.sent_bytes);
      reg.counter(base + ".delivered_bytes").set(c.delivered_bytes);
    };
    emit("net.total", net.totals());
    const net::FlowId probes[] = {1, 2, 4, static_cast<net::FlowId>(n_flows)};
    for (const net::FlowId f : probes) {
      emit("net.flow" + std::to_string(f), net.flow(f));
    }
    reg.counter("net.core.dropped").set(out.core_dropped);
    out.obs.metrics = reg.snapshot();
  }
  observer.finish(out.obs);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aqm;
  using namespace aqm::bench;

  const auto opts = core::parse_experiment_options(argc, argv,
                                                 core::kMetricsSidecar | core::kSloSidecar);

  banner("city_scale: flow-substrate fan-in sweep (1k -> 256k flows)");

  struct Case {
    const char* name;
    CityConfig cfg;
  };
  const Case cases[] = {
      {"1k flows (4 edges)", {4, 64, 16, 8, 0.0}},
      {"32k flows (8 edges)", {8, 256, 128, 2, 0.0}},
      {"256k flows (16 edges)", {16, 512, 512, 1, 0.0}},
      {"32k flows + HTB parent", {8, 256, 128, 2, /*parent=*/20e6}},
  };

  core::Experiment<CityResult> exp;
  for (const auto& c : cases) {
    exp.add(c.name, /*seed=*/c.cfg.hosts * c.cfg.flows_per_host,
            [cfg = c.cfg](const core::TrialSpec& spec) { return run_city(cfg, spec.sidecars); });
  }
  const auto results = exp.run(opts);

  TextTable table({"scenario", "flows", "sent", "delivered", "dropped",
                   "resv delivered", "resv lat (ms)", "BE lat (ms)",
                   "core resv (Mbps)"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    table.row({cases[i].name, std::to_string(r.n_flows), std::to_string(r.sent),
               std::to_string(r.delivered), std::to_string(r.dropped),
               std::to_string(r.reserved_delivered) + "/" +
                   std::to_string(r.reserved_sent),
               fmt(r.reserved_latency_ms(), 2), fmt(r.other_latency_ms(), 2),
               fmt(r.core_reserved_rate_bps / 1e6, 3)});
  }
  std::cout << "\n";
  table.print();
  std::cout << "\nNotes: every 8th flow holds a 50 kbps EF reservation on both\n"
            << "IntServ stages (edge->core, core->sink). The driver installs\n"
            << "them straight into the queues, bypassing RSVP admission, so\n"
            << "past 1k flows they over-commit the 30 Mbps core uplink, whose\n"
            << "reservable share is 27 Mbps: 204.8 Mbps is reserved at 32k\n"
            << "flows and 1638.4 Mbps at 256k. Reserved packets are still all\n"
            << "delivered (each flow queue holds its whole burst) while best\n"
            << "effort sheds load. They queue behind one another, though:\n"
            << "reserved latency grows with the over-commit (2561 ms in the\n"
            << "256k row) and nothing is guaranteed. The HTB variant adds a\n"
            << "20 Mbps shared parent bucket over the reserved class at the\n"
            << "core egress: excess EF is demoted into the saturated\n"
            << "best-effort queue and mostly dropped there, so only about\n"
            << "half the reserved packets survive vs. the uncapped 32k row.\n";
  return 0;
}
