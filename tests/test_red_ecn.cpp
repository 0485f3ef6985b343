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

// The queue's EWMA weight is 0.002 per arrival, so with nothing dequeued
// the average after n arrivals is about n - 500 * (1 - e^(-n/500)): 9 at
// 100 arrivals, 35 at 200, past the 200-packet max threshold from about
// 530 on. The min threshold is 30 packets and the capacity 1000.
void fill(RedQueue& q, int n, Ecn ecn) {
  for (int i = 0; i < n; ++i) (void)q.enqueue(make_packet(ecn), TimePoint::zero());
}

TEST(RedQueue, NoSignalsBelowMinThreshold) {
  RedQueue q;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(q.enqueue(make_packet(Ecn::Capable), TimePoint::zero()).has_value());
  }
  EXPECT_EQ(q.ecn_marked(), 0u);
  EXPECT_EQ(q.early_dropped(), 0u);
}

TEST(RedQueue, SustainedBacklogMarksCapablePackets) {
  RedQueue q;
  // Build a standing queue well past the max threshold without dequeuing.
  fill(q, 600, Ecn::Capable);
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
  RedQueue q;
  fill(q, 600, Ecn::NotCapable);
  EXPECT_EQ(q.ecn_marked(), 0u);
  EXPECT_GT(q.early_dropped(), 10u);
  EXPECT_EQ(q.stats().dropped, q.early_dropped());
}

TEST(RedQueue, HardCapacityStillEnforced) {
  RedQueue q;
  int rejected = 0;
  for (int i = 0; i < 1'100; ++i) {
    if (q.enqueue(make_packet(Ecn::Capable), TimePoint::zero()).has_value()) ++rejected;
  }
  EXPECT_EQ(q.packets(), 1'000u);
  EXPECT_EQ(rejected, 100);
}

TEST(RedQueue, AverageTracksOccupancy) {
  RedQueue q;
  EXPECT_DOUBLE_EQ(q.average_queue(), 0.0);
  fill(q, 200, Ecn::Capable);
  EXPECT_GT(q.average_queue(), 30.0);
  EXPECT_LT(q.average_queue(), 40.0);
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
  net.add_link(router, receiver, bottleneck, std::make_unique<RedQueue>());
  net.add_link(receiver, router, access);

  os::Cpu sender_cpu(engine, "sender-cpu");
  os::Cpu receiver_cpu(engine, "receiver-cpu");
  orb::TransportConfig ecn_orb;
  ecn_orb.ecn_capable = true;
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
