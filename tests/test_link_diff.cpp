// Differential suite for the coalesced link transmitter (DESIGN.md §5).
//
// net::Link serializes through a "virtual" transmitter: service decisions
// are replayed lazily at their exact instants, so a hop costs about one
// engine event per packet. It must be observably indistinguishable from
// oracle::StoreForwardLink (tests/oracle/), a literal store-and-forward
// transmitter with one event per stage. Every case drives a standalone
// link of each kind from one seeded arrival script — flow 5 at 8 Mbps
// Poisson plus flow 6 at 7 Mbps CBR into a 10 Mbps egress for 300 ms —
// and compares the per-packet (flow, seq, delivery ns) logs, the per-flow
// drop counts and the transmitted counts, across drop-tail, lossy,
// IntServ-policed and long-propagation configurations. Loss comes from
// oracle::LossyQueue in front of the egress discipline: links lose no
// packets of their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "oracle/lossy_queue.hpp"
#include "oracle/store_forward_link.hpp"
#include "sim/engine.hpp"

namespace aqm::net {
namespace {

struct LinkCase {
  double loss = 0.0;     // Bernoulli loss of arrivals at the egress
  bool intserv = false;  // IntServ egress with one policed reserved flow
  Duration propagation = LinkConfig{}.propagation;
  std::uint32_t packet_bytes = kDefaultMtu;
};

struct Arrival {
  std::int64_t at_ns;
  FlowId flow;
  std::uint64_t seq;
};

/// Arrival instants of one flow over [0, stop): Poisson or CBR at
/// `rate_bps`, intervals rounded to whole nanoseconds like TrafficGenerator.
void add_flow(std::vector<Arrival>& out, FlowId flow, double rate_bps, bool poisson,
              std::uint32_t packet_bytes, std::uint64_t seed, std::int64_t stop_ns) {
  Rng rng(seed);
  const double mean_s = static_cast<double>(packet_bytes) * 8.0 / rate_bps;
  std::int64_t t = 0;
  for (std::uint64_t seq = 0;; ++seq) {
    const double s = poisson ? rng.exponential(mean_s) : mean_s;
    t += std::max<std::int64_t>(1, std::llround(s * 1e9));
    if (t >= stop_ns) return;
    out.push_back(Arrival{t, flow, seq});
  }
}

std::vector<Arrival> arrival_script(const LinkCase& c) {
  const std::int64_t stop = milliseconds(300).ns();
  std::vector<Arrival> script;
  add_flow(script, 5, 8e6, /*poisson=*/true, c.packet_bytes, 101, stop);
  add_flow(script, 6, 7e6, /*poisson=*/false, c.packet_bytes, 202, stop);
  std::stable_sort(script.begin(), script.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at_ns < b.at_ns; });
  return script;
}

std::unique_ptr<Queue> make_discipline(const LinkCase& c) {
  if (!c.intserv) return std::make_unique<DropTailQueue>(40);
  // Flow 5 reserves half of its 8 Mbps offered load: its conforming
  // packets are served ahead of best effort, the excess is demoted into
  // the best-effort queue, where it tail-drops alongside flow 6.
  auto q = std::make_unique<IntServQueue>(IntServQueue::Config{/*best_effort_capacity=*/40});
  q->install_reservation(/*flow=*/5, /*rate_bps=*/4e6, /*bucket_bytes=*/6'000,
                         TimePoint::zero());
  return q;
}

std::unique_ptr<Queue> make_egress(const LinkCase& c) {
  if (c.loss == 0.0) return make_discipline(c);
  return std::make_unique<oracle::LossyQueue>(make_discipline(c), c.loss, /*seed=*/99);
}

/// One delivered packet: (flow, seq, delivery instant in ns).
using Delivery = std::tuple<FlowId, std::uint64_t, std::int64_t>;

struct LinkCaseStats {
  std::map<FlowId, std::uint64_t> sent;
  std::map<FlowId, std::uint64_t> dropped;
  std::map<FlowId, std::uint64_t> queue_dropped;  // rejected inside send()
  std::uint64_t transmitted = 0;
  std::uint64_t events_executed = 0;
  std::vector<Delivery> deliveries;  // in delivery order
};

template <typename LinkT>
LinkCaseStats run_link_case(const LinkCase& c) {
  sim::Engine engine;
  LinkConfig cfg;
  cfg.bandwidth_bps = 10e6;
  cfg.propagation = c.propagation;
  LinkT link(engine, /*from=*/0, /*to=*/1, cfg, make_egress(c));

  LinkCaseStats s;
  link.set_delivery([&](Packet&& p) {
    s.deliveries.emplace_back(p.flow, p.seq, engine.now().ns());
  });
  // The egress queue rejects synchronously inside send(); drops of queued
  // packets (none on these queues) would fire later from the engine.
  bool in_send = false;
  link.set_drop_hook([&](const Packet& p) {
    ++s.dropped[p.flow];
    if (in_send) ++s.queue_dropped[p.flow];
  });
  for (const Arrival& a : arrival_script(c)) {
    ++s.sent[a.flow];
    engine.at(TimePoint{a.at_ns}, [&link, &in_send, a, bytes = c.packet_bytes] {
      Packet p;
      p.src = 0;
      p.dst = 1;
      p.flow = a.flow;
      p.seq = a.seq;
      p.size_bytes = bytes;
      in_send = true;
      link.send(std::move(p));
      in_send = false;
    });
  }
  engine.run();

  s.transmitted = link.packets_transmitted();
  s.events_executed = engine.executed();
  return s;
}

/// Most deliveries that fall within one propagation delay of each other:
/// the deepest the link's in-flight FIFO got.
std::size_t max_in_flight(const std::vector<Delivery>& log, Duration propagation) {
  std::size_t best = 0;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < log.size(); ++hi) {
    while (std::get<2>(log[lo]) <= std::get<2>(log[hi]) - propagation.ns()) ++lo;
    best = std::max(best, hi - lo + 1);
  }
  return best;
}

LinkCaseStats expect_equivalent(const LinkCase& c, const char* what) {
  const LinkCaseStats ref = run_link_case<oracle::StoreForwardLink>(c);
  const LinkCaseStats coalesced = run_link_case<Link>(c);

  // The workload is saturating: something must actually be dropped, or the
  // case is not testing what it claims to.
  EXPECT_GT(ref.sent.at(5), 0u) << what;
  EXPECT_FALSE(ref.dropped.empty()) << what;

  EXPECT_EQ(ref.sent, coalesced.sent) << what;
  EXPECT_EQ(ref.dropped, coalesced.dropped) << what;
  EXPECT_EQ(ref.queue_dropped, coalesced.queue_dropped) << what;
  EXPECT_EQ(ref.transmitted, coalesced.transmitted) << what;
  // Per packet, not only in aggregate: same packets, same order, same
  // delivery instants.
  EXPECT_EQ(ref.deliveries.size(), ref.transmitted) << what;
  EXPECT_EQ(ref.deliveries, coalesced.deliveries) << what;
  // Same observable outcome, fewer events.
  EXPECT_LT(coalesced.events_executed, ref.events_executed) << what;
  return coalesced;
}

TEST(LinkCoalescing, EquivalentOnSaturatedDropTail) {
  expect_equivalent({}, "drop-tail");
}

/// Random arrivals lost at the egress: every decision the transmitter
/// replays must see the same surviving queue as the reference.
TEST(LinkCoalescing, EquivalentWithRandomLoss) {
  LinkCase c;
  c.loss = 0.05;
  expect_equivalent(c, "lossy");
}

/// The IntServ cases must exercise all three of its decisions: flow 5's
/// conforming packets jump the best-effort queue (it gets at least its
/// 4 Mbps, more than its share under drop-tail), and its demoted excess
/// tail-drops in the best-effort queue beside flow 6.
void expect_intserv_decisions(const LinkCaseStats& s, const char* what) {
  const LinkCaseStats drop_tail = run_link_case<Link>({});
  const auto delivered = [](const LinkCaseStats& r, FlowId flow) {
    return std::count_if(r.deliveries.begin(), r.deliveries.end(),
                         [flow](const Delivery& d) { return std::get<0>(d) == flow; });
  };
  const double reserved_packets = 4e6 * 0.3 / (kDefaultMtu * 8.0);
  EXPECT_GE(static_cast<double>(delivered(s, 5)), 0.95 * reserved_packets) << what;
  EXPECT_GT(delivered(s, 5), delivered(drop_tail, 5)) << what;
  EXPECT_GT(s.queue_dropped.count(5), 0u) << what;
  EXPECT_GT(s.queue_dropped.count(6), 0u) << what;
}

TEST(LinkCoalescing, EquivalentWithTokenBucketGating) {
  LinkCase c;
  c.intserv = true;
  expect_intserv_decisions(expect_equivalent(c, "intserv"), "intserv");
}

TEST(LinkCoalescing, EquivalentGatedAndLossy) {
  LinkCase c;
  c.intserv = true;
  c.loss = 0.03;
  expect_intserv_decisions(expect_equivalent(c, "intserv+lossy"), "intserv+lossy");
}

/// Propagation far longer than transmission (20 ms against 0.8 ms for a
/// 1000-byte packet at 10 Mbps) keeps about 25 packets in flight at once,
/// so every delivery pops a deep in-flight FIFO on the coalesced link.
TEST(LinkCoalescing, InFlightFifoOnLongPropagation) {
  LinkCase c;
  c.propagation = milliseconds(20);
  c.packet_bytes = 1000;
  const LinkCaseStats s = expect_equivalent(c, "long propagation");
  EXPECT_GE(max_in_flight(s.deliveries, c.propagation), 24u);
}

/// Same, with lost arrivals thinning the stream the FIFO carries.
TEST(LinkCoalescing, InFlightFifoOnLongPropagationLossy) {
  LinkCase c;
  c.propagation = milliseconds(20);
  c.packet_bytes = 1000;
  c.loss = 0.2;
  const LinkCaseStats s = expect_equivalent(c, "long propagation, lossy");
  EXPECT_GE(max_in_flight(s.deliveries, c.propagation), 15u);
}

/// Steady-state event cost: on a long saturated drain the coalesced
/// transmitter needs ~1 event per delivered packet vs ~2 for the
/// store-and-forward oracle.
template <typename LinkT>
double events_per_packet() {
  sim::Engine engine;
  LinkConfig cfg;
  cfg.bandwidth_bps = 10e6;
  constexpr int kPackets = 2'000;
  LinkT link(engine, 0, 1, cfg, std::make_unique<DropTailQueue>(kPackets));
  int delivered = 0;
  link.set_delivery([&delivered](Packet&&) { ++delivered; });
  for (int i = 0; i < kPackets; ++i) {
    Packet p;
    p.dst = 1;
    p.size_bytes = 1000;
    link.send(std::move(p));
  }
  engine.run();
  EXPECT_EQ(delivered, kPackets);
  return static_cast<double>(engine.executed()) / static_cast<double>(delivered);
}

TEST(LinkCoalescing, EventsPerPacketNearOne) {
  EXPECT_NEAR(events_per_packet<Link>(), 1.0, 0.05);
  EXPECT_NEAR(events_per_packet<oracle::StoreForwardLink>(), 2.0, 0.05);
}

}  // namespace
}  // namespace aqm::net
