#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "net/flow_monitor.hpp"
#include "net/network.hpp"
#include "net/traffic_gen.hpp"
#include "sim/engine.hpp"

namespace aqm::net {
namespace {

LinkConfig fast_link(double bps = 10e6, Duration prop = microseconds(100)) {
  LinkConfig cfg;
  cfg.bandwidth_bps = bps;
  cfg.propagation = prop;
  return cfg;
}

Packet make_packet(NodeId dst, std::uint32_t size, FlowId flow = 1) {
  Packet p;
  p.dst = dst;
  p.size_bytes = size;
  p.flow = flow;
  return p;
}

TEST(Network, DirectDeliveryLatencyIsTxPlusPropagation) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link(10e6, microseconds(100)));
  std::optional<TimePoint> arrival;
  net.set_receiver(b, [&](Packet&&) { arrival = e.now(); });
  net.send(a, make_packet(b, 1250));  // 1250 B at 10 Mbps = 1 ms tx
  e.run();
  ASSERT_TRUE(arrival);
  EXPECT_EQ(arrival->ns(), milliseconds(1).ns() + microseconds(100).ns());
}

TEST(Network, SerializationDelaysBackToBackPackets) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link(10e6, microseconds(0)));
  std::vector<std::int64_t> arrivals;
  net.set_receiver(b, [&](Packet&&) { arrivals.push_back(e.now().ns()); });
  net.send(a, make_packet(b, 1250));
  net.send(a, make_packet(b, 1250));
  net.send(a, make_packet(b, 1250));
  e.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], milliseconds(1).ns());
  EXPECT_EQ(arrivals[1], milliseconds(2).ns());
  EXPECT_EQ(arrivals[2], milliseconds(3).ns());
}

TEST(Network, MultiHopRoutingViaRouter) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId r = net.add_node("router");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, r, fast_link());
  net.add_duplex_link(r, b, fast_link());
  bool arrived = false;
  net.set_receiver(b, [&](Packet&& p) {
    arrived = true;
    EXPECT_EQ(p.src, a);
    EXPECT_EQ(p.dst, b);
  });
  net.send(a, make_packet(b, 500));
  e.run();
  EXPECT_TRUE(arrived);
  EXPECT_EQ(net.next_hop(a, b), r);
  EXPECT_EQ((net.path(a, b)), (std::vector<NodeId>{a, r, b}));
}

TEST(Network, ShortestPathPreferred) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId r1 = net.add_node("r1");
  const NodeId r2 = net.add_node("r2");
  const NodeId b = net.add_node("b");
  // Long path a-r1-r2-b and a direct a-b link.
  net.add_duplex_link(a, r1, fast_link());
  net.add_duplex_link(r1, r2, fast_link());
  net.add_duplex_link(r2, b, fast_link());
  net.add_duplex_link(a, b, fast_link());
  EXPECT_EQ(net.next_hop(a, b), b);
  EXPECT_EQ(net.path(a, b).size(), 2u);
}

TEST(Network, UnreachableDestinationDropsPacket) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("island");
  bool arrived = false;
  net.set_receiver(b, [&](Packet&&) { arrived = true; });
  net.send(a, make_packet(b, 100, 5));
  e.run();
  EXPECT_FALSE(arrived);
  EXPECT_EQ(net.flow(5).dropped, 1u);
  EXPECT_EQ(net.next_hop(a, b), kInvalidNode);
  EXPECT_TRUE(net.path(a, b).empty());
}

TEST(Network, FlowCountersTrackSentAndDelivered) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link());
  net.set_receiver(b, [](Packet&&) {});
  for (int i = 0; i < 5; ++i) net.send(a, make_packet(b, 100, 9));
  e.run();
  EXPECT_EQ(net.flow(9).sent, 5u);
  EXPECT_EQ(net.flow(9).delivered, 5u);
  EXPECT_EQ(net.flow(9).dropped, 0u);
  EXPECT_EQ(net.flow(9).sent_bytes, 500u);
  EXPECT_EQ(net.totals().sent, 5u);
}

TEST(Network, CongestionDropsAreCounted) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  // Tiny queue: 2 packets.
  net.add_link(a, b, fast_link(1e6), std::make_unique<DropTailQueue>(2));
  net.add_link(b, a, fast_link());
  net.set_receiver(b, [](Packet&&) {});
  // Burst of 10 packets into a slow link: 1 transmitting + 2 queued pass.
  for (int i = 0; i < 10; ++i) net.send(a, make_packet(b, 1000, 3));
  e.run();
  EXPECT_EQ(net.flow(3).sent, 10u);
  EXPECT_EQ(net.flow(3).delivered, 3u);
  EXPECT_EQ(net.flow(3).dropped, 7u);
}

TEST(Network, ReservationTeardownDropsReachTheFlowCounters) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  IntServQueue::Config qc;
  qc.best_effort_capacity = 2;
  auto queue = std::make_unique<IntServQueue>(qc);
  IntServQueue& q = *queue;
  net.add_link(a, b, fast_link(1e6), std::move(queue));
  net.add_link(b, a, fast_link());
  net.set_receiver(b, [](Packet&&) {});
  q.install_reservation(7, 1e6, 100'000, e.now());
  // Flow 7: one packet on the wire, five conforming ones in its flow queue.
  for (int i = 0; i < 6; ++i) net.send(a, make_packet(b, 1000, 7));
  // Best effort full behind them.
  for (int i = 0; i < 2; ++i) net.send(a, make_packet(b, 1000, 8));
  ASSERT_EQ(q.packets(), 7u);
  // Teardown demotes flow 7's queued packets into the full best-effort
  // queue: all five are dropped, and the network must count them.
  q.remove_reservation(7);
  EXPECT_EQ(q.stats().dropped, 5u);
  e.run();
  const FlowCounters& f7 = net.flow(7);
  EXPECT_EQ(f7.sent, 6u);
  EXPECT_EQ(f7.delivered, 1u);
  EXPECT_EQ(f7.dropped, 5u);
  EXPECT_EQ(f7.sent, f7.delivered + f7.dropped);
  EXPECT_EQ(net.flow(8).delivered, 2u);
  EXPECT_EQ(net.totals().sent, net.totals().delivered + net.totals().dropped);
}

TEST(Network, LinkUtilizationAndCounters) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link(10e6, Duration::zero()));
  net.set_receiver(b, [](Packet&&) {});
  net.send(a, make_packet(b, 1250));  // 1 ms tx
  e.after(milliseconds(2), [] {});    // extend wall time to 2 ms
  e.run();
  Link* link = net.link_between(a, b);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->packets_transmitted(), 1u);
  EXPECT_EQ(link->bytes_transmitted(), 1250u);
  EXPECT_NEAR(link->utilization(), 0.5, 0.01);
}

TEST(Network, TransmissionTimeComputation) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link(100e6));
  const Link* link = net.link_between(a, b);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->transmission_time(1250).ns(), 100'000);  // 1250B @ 100Mbps = 100us
}

TEST(TrafficGenerator, CbrRateIsAccurate) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link(100e6));
  net.set_receiver(b, [](Packet&&) {});
  TrafficGenerator::Config cfg;
  cfg.src = a;
  cfg.dst = b;
  cfg.rate_bps = 1.2e6;
  cfg.flow = 4;
  cfg.poisson = false;
  TrafficGenerator gen(net, cfg);
  gen.start();
  e.run_until(TimePoint{seconds(10).ns()});
  gen.stop();
  // 1.2 Mbps = 150 KB/s = 100 pkts/s of 1500 B.
  static_assert(TrafficGenerator::kPacketBytes == 1500);
  EXPECT_NEAR(static_cast<double>(gen.packets_sent()), 1000.0, 10.0);
}

TEST(TrafficGenerator, PoissonApproximatesRate) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link(100e6));
  net.set_receiver(b, [](Packet&&) {});
  TrafficGenerator::Config cfg;
  cfg.src = a;
  cfg.dst = b;
  cfg.rate_bps = 12e6;  // 1000 pkts/s of 1500 B
  cfg.poisson = true;
  cfg.seed = 99;
  TrafficGenerator gen(net, cfg);
  gen.run_between(TimePoint{seconds(1).ns()}, TimePoint{seconds(6).ns()});
  e.run_until(TimePoint{seconds(10).ns()});
  EXPECT_NEAR(static_cast<double>(gen.packets_sent()), 5000.0, 300.0);
}

TEST(FlowMonitor, RecordsLatencyAndGaps) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link(10e6, Duration::zero()));
  FlowMonitor monitor(net, b);
  Packet p1 = make_packet(b, 1250, 6);
  p1.seq = 0;
  Packet p2 = make_packet(b, 1250, 6);
  p2.seq = 2;  // seq 1 lost
  net.send(a, std::move(p1));
  net.send(a, std::move(p2));
  e.run();
  EXPECT_EQ(monitor.received(6), 2u);
  EXPECT_EQ(monitor.sequence_gaps(6), 1u);
  EXPECT_EQ(monitor.received_bytes(6), 2500u);
  const auto stats = monitor.latency_series(6).stats();
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_NEAR(stats.min(), 1.0, 0.01);  // 1ms serialization
}

TEST(LossyLink, ZeroLossByDefault) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link());
  int received = 0;
  net.set_receiver(b, [&](Packet&&) { ++received; });
  for (int i = 0; i < 100; ++i) {
    e.after(microseconds(100 * i), [&] { net.send(a, make_packet(b, 500)); });
  }
  e.run();
  EXPECT_EQ(received, 100);
  EXPECT_EQ(net.flow(1).dropped, 0u);
}

TEST(FlowMonitor, DownstreamStillSeesPackets) {
  sim::Engine e;
  Network net(e);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, fast_link());
  FlowMonitor monitor(net, b);
  int seen = 0;
  monitor.set_downstream([&](Packet&&) { ++seen; });
  net.send(a, make_packet(b, 100));
  e.run();
  EXPECT_EQ(seen, 1);
}

}  // namespace
}  // namespace aqm::net
