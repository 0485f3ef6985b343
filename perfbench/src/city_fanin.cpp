// city_fanin: packet-only fan-in through IntServ egresses (net + sim).
//
// Hosts burst one packet per flow per round, open loop on the simulated
// clock, into their edge router; every edge forwards over an IntServ
// egress into the core router, whose IntServ egress to the sink is the
// one oversubscribed uplink. Every 8th flow holds a reservation on both
// IntServ stages it crosses and is "protected"; the rest is best effort
// and is shed at the core. The core uplink is sized from the reserved
// aggregate so that reservations always fit the reservable share.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "net/queue.hpp"

namespace perfbench {

using namespace aqm;

namespace {

struct CityParams {
  std::size_t edges;
  std::size_t hosts;
  std::size_t flows_per_host;
  int rounds;
};

constexpr Duration kRoundPeriod = milliseconds(250);
constexpr std::uint32_t kPacketBytes = 700;
constexpr double kReservedRateBps = 32e3;  // one 700 B packet per round fits
constexpr std::uint32_t kReservedBucket = 16'000;
constexpr double kReservable = 0.9;
// Core uplink = reserved aggregate / kCoreReservedShare. Reservations take
// half of it: well inside the 90% reservable share, and enough headroom
// that clustered host bursts never back up the reserved class, so the
// reserved latency tail is the host-link burst position, not the seed.
constexpr double kCoreReservedShare = 0.5;

bool is_reserved(net::FlowId f) { return (f - 1) % 8 == 0; }

}  // namespace

IterationResult run_city_fanin(const RunOptions& opt) {
  const CityParams P = opt.scale == Scale::Tiny ? CityParams{4, 32, 32, 2}
                                                : CityParams{16, 512, 256, 4};
  SpanRecorder* const spans = opt.spans;
  IterationResult r;
  const std::int64_t t_setup = host_ns();

  sim::Engine engine;
  net::Network net(engine);
  const std::uint64_t n_flows = P.hosts * P.flows_per_host;
  const std::uint64_t n_reserved = (n_flows + 7) / 8;
  const double core_bps = static_cast<double>(n_reserved) * kReservedRateBps /
                          kCoreReservedShare;

  net::NodeId core = 0;
  net::NodeId sink = 0;
  std::vector<net::NodeId> edges;
  std::vector<net::NodeId> hosts;
  std::vector<const net::Link*> links;
  std::vector<const net::Link*> intserv_links;
  net::IntServQueue* core_q = nullptr;
  std::vector<net::IntServQueue*> edge_q;
  std::vector<Rng> host_rng;
  std::vector<std::int64_t> host_offset_ns;
  std::vector<std::uint32_t> order(P.flows_per_host);

  {
    Scoped setup_span(spans, "bench.setup");
    {
      Scoped s(spans, "net.build");
      core = net.add_node("core");
      sink = net.add_node("sink");
      for (std::size_t m = 0; m < P.edges; ++m) {
        edges.push_back(net.add_node("edge" + std::to_string(m)));
      }
      for (std::size_t h = 0; h < P.hosts; ++h) {
        hosts.push_back(net.add_node("host" + std::to_string(h)));
      }
      const auto intserv = [] {
        net::IntServQueue::Config qc;
        qc.best_effort_capacity = 4'096;
        return std::make_unique<net::IntServQueue>(qc);
      };
      net::LinkConfig host_up;
      host_up.bandwidth_bps = 100e6;
      net::LinkConfig edge_up;
      edge_up.bandwidth_bps = 1e9;
      edge_up.reservable_fraction = kReservable;
      net::LinkConfig core_up;
      core_up.bandwidth_bps = core_bps;
      core_up.reservable_fraction = kReservable;
      for (std::size_t h = 0; h < P.hosts; ++h) {
        links.push_back(&net.add_link(hosts[h], edges[h % P.edges], host_up,
                                      std::make_unique<net::DropTailQueue>(
                                          2 * P.flows_per_host)));
      }
      for (const net::NodeId e : edges) {
        auto q = intserv();
        edge_q.push_back(q.get());
        links.push_back(&net.add_link(e, core, edge_up, std::move(q)));
        intserv_links.push_back(links.back());
      }
      auto q = intserv();
      core_q = q.get();
      links.push_back(&net.add_link(core, sink, core_up, std::move(q)));
      intserv_links.push_back(links.back());
    }

    // Reservations go straight into the IntServ queues (no RSVP on this
    // workload); ids ascend, so each install extends the reserved sum.
    const TimePoint t0 = TimePoint::zero();
    for (net::FlowId f = 1; f <= n_flows; f += 8) {
      const std::size_t host = static_cast<std::size_t>((f - 1) / P.flows_per_host);
      Scoped s(spans, "net.install", f);
      edge_q[host % P.edges]->install_reservation(f, kReservedRateBps, kReservedBucket, t0);
      core_q->install_reservation(f, kReservedRateBps, kReservedBucket, t0);
    }

    net.set_receiver(sink, [&r, &engine, spans](net::Packet&& p) {
      Scoped s(spans, "bench.recv", p.flow);
      if (is_reserved(p.flow)) r.latency_ns.push_back((engine.now() - p.sent_at).ns());
    });

    // Each host gets its own seeded stream: a start offset inside the round
    // and a fresh send order of its flows every round.
    Rng seeder(derive_seed(opt.seed, 1));
    for (std::size_t h = 0; h < P.hosts; ++h) {
      host_rng.emplace_back(seeder.next_u64());
      host_offset_ns.push_back(host_rng.back().uniform_int(0, kRoundPeriod.ns() - 1));
    }
    for (int round = 0; round < P.rounds; ++round) {
      for (std::size_t h = 0; h < P.hosts; ++h) {
        const TimePoint at{1'000 + host_offset_ns[h] + round * kRoundPeriod.ns()};
        engine.at(at, [&, h, round] {
          const std::uint64_t burst_id = (static_cast<std::uint64_t>(round) << 32) | h;
          Scoped b(spans, "bench.burst", burst_id);
          for (std::size_t j = 0; j < order.size(); ++j) {
            order[j] = static_cast<std::uint32_t>(j);
          }
          Rng& rng = host_rng[h];
          for (std::size_t j = order.size(); j > 1; --j) {
            std::swap(order[j - 1],
                      order[static_cast<std::size_t>(
                          rng.uniform_int(0, static_cast<std::int64_t>(j) - 1))]);
          }
          for (const std::uint32_t j : order) {
            const net::FlowId f = h * P.flows_per_host + j + 1;
            net::Packet p;
            p.dst = sink;
            p.flow = f;
            p.seq = static_cast<std::uint64_t>(round);
            p.size_bytes = kPacketBytes;
            p.dscp = is_reserved(f) ? net::dscp::kEf
                     : j % 3 == 0   ? net::dscp::kAf11
                                    : net::dscp::kBestEffort;
            Scoped s(spans, "net.send", burst_id);
            net.send(hosts[h], std::move(p));
          }
        });
      }
    }
    r.latency_ns.reserve(n_reserved * static_cast<std::size_t>(P.rounds));
  }
  r.setup_s = static_cast<double>(host_ns() - t_setup) / 1e9;

  const std::int64_t t_run = host_ns();
  // 1 ms slices (about 0.5 ms of host time each), so the per-slice minima
  // that make run_s come from short stretches.
  drain(engine, milliseconds(1),
        TimePoint::zero() + kRoundPeriod * (P.rounds + 1) + seconds(30), spans, r);
  r.run_s = static_cast<double>(host_ns() - t_run) / 1e9;
  r.events = engine.executed();

  // --- harvest and checks ---------------------------------------------------
  std::uint64_t resv_sent = 0;
  std::uint64_t resv_dropped = 0;
  std::uint64_t flows_seen = 0;
  bool per_flow_ok = true;
  for (net::FlowId f = 1; f <= n_flows; ++f) {
    const net::FlowCounters& c = net.flow(f);
    per_flow_ok = per_flow_ok && c.sent == c.delivered + c.dropped;
    if (c.sent > 0) ++flows_seen;
    if (is_reserved(f)) {
      resv_sent += c.sent;
      r.delivered += c.delivered;
      resv_dropped += c.dropped;
    }
    r.digest.add(c.sent);
    r.digest.add(c.delivered);
    r.digest.add(c.dropped);
  }
  r.check(per_flow_ok, "net: a flow has sent != delivered + dropped");
  r.check(r.latency_ns.size() == r.delivered, "sink saw a different reserved count");
  const net::FlowCounters& tot = net.totals();
  r.attempted = resv_sent;
  r.other_attempted = tot.sent - resv_sent;
  r.other_failed = tot.dropped - resv_dropped;
  record_net(r, net, links, *core_q, flows_seen);

  r.counts["net.reserved_util_max"] = check_reservable(r, intserv_links);
  for (const std::int64_t ns : r.latency_ns) r.digest.add_signed(ns);
  r.digest.add(r.events);
  return r;
}

}  // namespace perfbench
