#include "net/queue.hpp"

#include <gtest/gtest.h>

namespace aqm::net {
namespace {

Packet make_packet(std::uint32_t size, Dscp dscp = dscp::kBestEffort,
                   FlowId flow = kNoFlow) {
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.size_bytes = size;
  p.dscp = dscp;
  p.flow = flow;
  return p;
}

const TimePoint t0 = TimePoint::zero();

// --- DropTailQueue -------------------------------------------------------------

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(10);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    auto p = make_packet(i * 100);
    EXPECT_FALSE(q.enqueue(std::move(p), t0).has_value());
  }
  EXPECT_EQ(q.packets(), 3u);
  EXPECT_EQ(q.bytes(), 600u);
  EXPECT_EQ(q.dequeue()->size_bytes, 100u);
  EXPECT_EQ(q.dequeue()->size_bytes, 200u);
  EXPECT_EQ(q.dequeue()->size_bytes, 300u);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q(2);
  EXPECT_FALSE(q.enqueue(make_packet(100), t0).has_value());
  EXPECT_FALSE(q.enqueue(make_packet(100), t0).has_value());
  const auto rejected = q.enqueue(make_packet(999), t0);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->size_bytes, 999u);
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.stats().enqueued, 2u);
}

// --- DiffServQueue -------------------------------------------------------------

TEST(DiffServQueue, EfServedBeforeBestEffort) {
  DiffServQueue q(100);
  (void)q.enqueue(make_packet(1, dscp::kBestEffort), t0);
  (void)q.enqueue(make_packet(2, dscp::kEf), t0);
  (void)q.enqueue(make_packet(3, dscp::kBestEffort), t0);
  EXPECT_EQ(q.dequeue()->size_bytes, 2u);
  EXPECT_EQ(q.dequeue()->size_bytes, 1u);
  EXPECT_EQ(q.dequeue()->size_bytes, 3u);
}

TEST(DiffServQueue, StrictPriorityAcrossAllClasses) {
  DiffServQueue q(100);
  (void)q.enqueue(make_packet(5, dscp::kAf11), t0);
  (void)q.enqueue(make_packet(4, dscp::kAf21), t0);
  (void)q.enqueue(make_packet(3, dscp::kAf31), t0);
  (void)q.enqueue(make_packet(2, dscp::kAf41), t0);
  (void)q.enqueue(make_packet(1, dscp::kEf), t0);
  (void)q.enqueue(make_packet(6, dscp::kBestEffort), t0);
  (void)q.enqueue(make_packet(0, dscp::kCs6), t0);
  std::vector<std::uint32_t> order;
  while (auto p = q.dequeue()) order.push_back(p->size_bytes);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(DiffServQueue, PerClassCapacityIsolation) {
  DiffServQueue q(2);
  // Fill best effort.
  EXPECT_FALSE(q.enqueue(make_packet(1, dscp::kBestEffort), t0).has_value());
  EXPECT_FALSE(q.enqueue(make_packet(1, dscp::kBestEffort), t0).has_value());
  EXPECT_TRUE(q.enqueue(make_packet(1, dscp::kBestEffort), t0).has_value());
  // EF class still has room: congestion in BE does not hurt EF.
  EXPECT_FALSE(q.enqueue(make_packet(1, dscp::kEf), t0).has_value());
  EXPECT_EQ(q.class_packets(PhbClass::Ef), 1u);
  EXPECT_EQ(q.class_packets(PhbClass::BestEffort), 2u);
}

TEST(DiffServQueue, ClassifyMapsCodepoints) {
  EXPECT_EQ(classify(dscp::kEf), PhbClass::Ef);
  EXPECT_EQ(classify(dscp::kCs6), PhbClass::NetworkControl);
  EXPECT_EQ(classify(dscp::kAf41), PhbClass::Af4);
  EXPECT_EQ(classify(dscp::kAf11), PhbClass::Af1);
  EXPECT_EQ(classify(dscp::kBestEffort), PhbClass::BestEffort);
  EXPECT_EQ(classify(7), PhbClass::BestEffort);  // unknown codepoint
}

// --- IntServQueue --------------------------------------------------------------

IntServQueue::Config small_config() {
  IntServQueue::Config cfg;
  cfg.best_effort_capacity = 4;
  return cfg;
}

TEST(IntServQueue, UnreservedTrafficIsBestEffort) {
  IntServQueue q(small_config());
  (void)q.enqueue(make_packet(1, dscp::kBestEffort, 5), t0);
  EXPECT_EQ(q.packets(), 1u);
  EXPECT_EQ(q.dequeue()->size_bytes, 1u);
}

TEST(IntServQueue, ReservedFlowServedAheadOfBestEffort) {
  IntServQueue q(small_config());
  q.install_reservation(7, 1e6, 50'000, t0);
  (void)q.enqueue(make_packet(100, dscp::kBestEffort, kNoFlow), t0);
  (void)q.enqueue(make_packet(200, dscp::kBestEffort, 7), t0);
  EXPECT_EQ(q.dequeue()->flow, 7u);
  EXPECT_EQ(q.dequeue()->flow, kNoFlow);
}

TEST(IntServQueue, ExcessDemotesToBestEffortByDefault) {
  IntServQueue q(small_config());
  // 1000 B/s, bucket 1000 B: only the first 1000-byte burst conforms.
  q.install_reservation(7, 8000.0, 1000, t0);
  EXPECT_FALSE(q.enqueue(make_packet(800, dscp::kBestEffort, 7), t0).has_value());
  EXPECT_FALSE(q.enqueue(make_packet(800, dscp::kBestEffort, 7), t0).has_value());
  // First packet conformed (guaranteed queue); second was demoted but NOT
  // dropped: with idle capacity it still flows as best effort.
  EXPECT_EQ(q.packets(), 2u);
  EXPECT_EQ(q.stats().dropped, 0u);
  // Both are immediately eligible (no token gating at dequeue).
  EXPECT_TRUE(q.dequeue().has_value());
  EXPECT_TRUE(q.dequeue().has_value());
}

TEST(IntServQueue, DemotedExcessDropsOnlyWhenBestEffortFull) {
  IntServQueue q(small_config());  // best-effort capacity 4
  q.install_reservation(7, 8000.0, 1000, t0);
  int dropped = 0;
  for (int i = 0; i < 8; ++i) {
    if (q.enqueue(make_packet(900, dscp::kBestEffort, 7), t0).has_value()) ++dropped;
  }
  // 1 conforming + 4 best effort accepted; the rest dropped.
  EXPECT_EQ(dropped, 3);
}

TEST(IntServQueue, ControlPlaneBypassesEverything) {
  IntServQueue q(small_config());
  q.install_reservation(7, 1e9, 50'000, t0);
  (void)q.enqueue(make_packet(1, dscp::kBestEffort, 7), t0);
  (void)q.enqueue(make_packet(2, dscp::kCs6), t0);
  EXPECT_EQ(q.dequeue()->size_bytes, 2u);
}

TEST(IntServQueue, RemoveReservationDemotesQueuedPackets) {
  IntServQueue q(small_config());
  q.install_reservation(7, 8000.0, 1000, t0);
  (void)q.enqueue(make_packet(1, dscp::kBestEffort), t0);
  // Both conform (800 of the 1000 bucket bytes) and wait in the flow queue,
  // ahead of the best-effort packet that arrived first.
  (void)q.enqueue(make_packet(400, dscp::kBestEffort, 7), t0);
  (void)q.enqueue(make_packet(400, dscp::kBestEffort, 7), t0);
  q.remove_reservation(7);
  EXPECT_FALSE(q.has_reservation(7));
  EXPECT_EQ(q.packets(), 3u);  // still queued, now as best effort
  // Demoted to the tail of the best-effort FIFO.
  EXPECT_EQ(q.dequeue()->size_bytes, 1u);
  EXPECT_EQ(q.dequeue()->size_bytes, 400u);
  EXPECT_EQ(q.dequeue()->size_bytes, 400u);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(IntServQueue, ReservedRateSumsFlows) {
  IntServQueue q(small_config());
  q.install_reservation(1, 1e6, 10'000, t0);
  q.install_reservation(2, 2e6, 10'000, t0);
  EXPECT_DOUBLE_EQ(q.reserved_rate_bps(), 3e6);
  EXPECT_DOUBLE_EQ(q.flow_rate_bps(1), 1e6);
  EXPECT_DOUBLE_EQ(q.flow_rate_bps(99), 0.0);
  // Modify replaces, does not add.
  q.install_reservation(1, 0.5e6, 10'000, t0);
  EXPECT_DOUBLE_EQ(q.reserved_rate_bps(), 2.5e6);
}

}  // namespace
}  // namespace aqm::net
