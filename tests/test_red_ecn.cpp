// RED queue behavior and end-to-end ECN congestion feedback.
#include <gtest/gtest.h>

#include <memory>

#include "net/network.hpp"
#include "net/red_queue.hpp"
#include "net/traffic_gen.hpp"
#include "orb/orb.hpp"
#include "orb/servant.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

namespace aqm::net {
namespace {

Packet make_packet(Ecn ecn = Ecn::NotCapable) {
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.size_bytes = 1000;
  p.ecn = ecn;
  return p;
}

RedConfig small_red() {
  RedConfig cfg;
  cfg.capacity_packets = 100;
  cfg.min_threshold = 5;
  cfg.max_threshold = 20;
  cfg.max_probability = 0.2;
  cfg.weight = 0.5;  // fast-moving average for unit tests
  return cfg;
}

TEST(RedQueue, NoSignalsBelowMinThreshold) {
  RedQueue q(small_red());
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(q.enqueue(make_packet(Ecn::Capable), TimePoint::zero()).has_value());
  }
  EXPECT_EQ(q.ecn_marked(), 0u);
  EXPECT_EQ(q.early_dropped(), 0u);
}

TEST(RedQueue, SustainedBacklogMarksCapablePackets) {
  RedQueue q(small_red());
  // Build a standing queue well past max_threshold without dequeuing.
  for (int i = 0; i < 60; ++i) (void)q.enqueue(make_packet(Ecn::Capable), TimePoint::zero());
  EXPECT_GT(q.ecn_marked(), 10u);
  EXPECT_EQ(q.early_dropped(), 0u);  // capable packets are marked, not dropped
  // Marked packets come out with CongestionExperienced set.
  int ce = 0;
  while (auto p = q.dequeue()) {
    if (p->ecn == Ecn::CongestionExperienced) ++ce;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(ce), q.ecn_marked());
}

TEST(RedQueue, NonCapablePacketsAreDroppedInstead) {
  RedQueue q(small_red());
  for (int i = 0; i < 60; ++i) (void)q.enqueue(make_packet(Ecn::NotCapable), TimePoint::zero());
  EXPECT_EQ(q.ecn_marked(), 0u);
  EXPECT_GT(q.early_dropped(), 10u);
  EXPECT_EQ(q.stats().dropped, q.early_dropped());
}

TEST(RedQueue, EcnDisabledDropsCapablePacketsToo) {
  RedConfig cfg = small_red();
  cfg.ecn = false;
  RedQueue q(cfg);
  for (int i = 0; i < 60; ++i) (void)q.enqueue(make_packet(Ecn::Capable), TimePoint::zero());
  EXPECT_EQ(q.ecn_marked(), 0u);
  EXPECT_GT(q.early_dropped(), 10u);
}

TEST(RedQueue, HardCapacityStillEnforced) {
  RedConfig cfg = small_red();
  cfg.capacity_packets = 10;
  RedQueue q(cfg);
  int rejected = 0;
  for (int i = 0; i < 30; ++i) {
    if (q.enqueue(make_packet(Ecn::Capable), TimePoint::zero()).has_value()) ++rejected;
  }
  EXPECT_EQ(q.packets(), 10u);
  EXPECT_GT(rejected, 0);
}

TEST(RedQueue, AverageTracksOccupancy) {
  RedQueue q(small_red());
  EXPECT_DOUBLE_EQ(q.average_queue(), 0.0);
  for (int i = 0; i < 30; ++i) (void)q.enqueue(make_packet(Ecn::Capable), TimePoint::zero());
  EXPECT_GT(q.average_queue(), 5.0);
}

TEST(EcnEndToEnd, TransportCountsCongestionMarks) {
  sim::Engine engine;
  Network net(engine);
  const NodeId sender = net.add_node("sender");
  const NodeId router = net.add_node("router");
  const NodeId receiver = net.add_node("receiver");
  const NodeId load_src = net.add_node("load");

  LinkConfig access;
  access.bandwidth_bps = 100e6;
  LinkConfig bottleneck;
  bottleneck.bandwidth_bps = 10e6;
  net.add_duplex_link(sender, router, access);
  net.add_duplex_link(load_src, router, access);
  RedConfig red;
  red.min_threshold = 20;
  red.max_threshold = 100;
  red.max_probability = 0.2;
  net.add_link(router, receiver, bottleneck, std::make_unique<RedQueue>(red));
  net.add_link(receiver, router, access);

  os::Cpu sender_cpu(engine, "sender-cpu");
  os::Cpu receiver_cpu(engine, "receiver-cpu");
  orb::OrbConfig ecn_orb;
  ecn_orb.transport.ecn_capable = true;
  orb::OrbEndpoint sender_orb(net, sender, sender_cpu, ecn_orb);
  orb::OrbEndpoint receiver_orb(net, receiver, receiver_cpu, ecn_orb);

  int received = 0;
  orb::Poa& poa = receiver_orb.create_poa("app");
  auto servant = std::make_shared<orb::FunctionServant>(
      microseconds(50), [&](orb::ServerRequest&) { ++received; });
  const orb::ObjectRef ref = poa.activate_object("sink", std::move(servant));
  orb::ObjectStub stub(sender_orb, ref);
  stub.set_flow(5);

  // Saturating (non-ECN) load + an ECN-capable message stream.
  TrafficGenerator::Config load;
  load.src = load_src;
  load.dst = receiver;
  load.rate_bps = 15e6;
  load.flow = 9;
  TrafficGenerator load_gen(net, load);
  load_gen.start();

  sim::PeriodicTimer task(engine, milliseconds(10), [&] {
    stub.oneway("push", std::vector<std::uint8_t>(1200));
  });
  task.start();
  engine.run_until(TimePoint{seconds(10).ns()});
  task.stop();
  load_gen.stop();
  engine.run_until(TimePoint{seconds(12).ns()});

  // The router marked our capable packets instead of dropping everything:
  // marks observed at the receiver-side transport, and goodput survived.
  EXPECT_GT(receiver_orb.transport().ce_marks(5), 20u);
  EXPECT_GT(received, 500);
}

}  // namespace
}  // namespace aqm::net
