// RSVP signaling: PATH/RESV establishment, admission control, teardown.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "net/queue.hpp"
#include "net/rsvp.hpp"
#include "oracle/lossy_queue.hpp"
#include "sim/engine.hpp"

namespace aqm::net {
namespace {

struct RsvpFixture : public ::testing::Test {
  RsvpFixture() : net(engine) {
    sender = net.add_node("sender");
    router = net.add_node("router");
    receiver = net.add_node("receiver");
    LinkConfig cfg;
    cfg.bandwidth_bps = 10e6;
    cfg.propagation = microseconds(100);
    net.add_link(sender, router, cfg, std::make_unique<IntServQueue>(IntServQueue::Config{}));
    net.add_link(router, sender, cfg);
    net.add_link(router, receiver, cfg,
                 std::make_unique<IntServQueue>(IntServQueue::Config{}));
    net.add_link(receiver, router, cfg);
    for (const NodeId n : {sender, router, receiver}) {
      agents.push_back(std::make_unique<RsvpAgent>(net, n));
    }
  }

  RsvpAgent& agent_at(NodeId n) { return *agents[static_cast<std::size_t>(n)]; }
  IntServQueue* queue_on(NodeId from, NodeId to) {
    return dynamic_cast<IntServQueue*>(&net.link_between(from, to)->queue());
  }

  sim::Engine engine;
  Network net;
  NodeId sender{};
  NodeId router{};
  NodeId receiver{};
  std::vector<std::unique_ptr<RsvpAgent>> agents;
};

TEST_F(RsvpFixture, ReservationInstallsOnEveryHop) {
  std::optional<bool> outcome;
  agent_at(sender).reserve(7, receiver, FlowSpec{1.2e6, 16'000},
                           [&](Status<std::string> s) { outcome = s.ok(); });
  engine.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(*outcome);
  EXPECT_TRUE(agent_at(sender).confirmed(7));
  ASSERT_NE(queue_on(sender, router), nullptr);
  EXPECT_TRUE(queue_on(sender, router)->has_reservation(7));
  EXPECT_TRUE(queue_on(router, receiver)->has_reservation(7));
}

TEST_F(RsvpFixture, SignalingTakesNetworkTime) {
  std::optional<TimePoint> confirmed_at;
  agent_at(sender).reserve(7, receiver, FlowSpec{1e6, 16'000},
                           [&](Status<std::string>) { confirmed_at = engine.now(); });
  engine.run();
  ASSERT_TRUE(confirmed_at.has_value());
  // PATH out (2 hops) + RESV back (2 hops): at least 4 propagation delays.
  EXPECT_GT(confirmed_at->ns(), 4 * microseconds(100).ns());
}

TEST_F(RsvpFixture, SupersededCallbackThatReservesAgainLeavesTheLatestLive) {
  // cb1 is superseded by cb2 and, from inside its callback, issues cb3:
  // cb3 is then the latest request, so cb2 is superseded too.
  std::vector<Status<std::string>> cb1;
  std::vector<Status<std::string>> cb2;
  std::vector<Status<std::string>> cb3;
  RsvpAgent& a = agent_at(sender);
  a.reserve(5, receiver, FlowSpec{1e6, 16'000},
            [&](Status<std::string> s) {
              cb1.push_back(std::move(s));
              if (cb1.size() == 1) {
                a.reserve(5, receiver, FlowSpec{2e6, 16'000},
                          [&](Status<std::string> s3) { cb3.push_back(std::move(s3)); });
              }
            });
  a.reserve(5, receiver, FlowSpec{3e6, 16'000},
            [&](Status<std::string> s) { cb2.push_back(std::move(s)); });
  engine.run();
  ASSERT_EQ(cb1.size(), 1u);
  ASSERT_EQ(cb2.size(), 1u);
  ASSERT_EQ(cb3.size(), 1u);
  ASSERT_FALSE(cb1[0].ok());
  EXPECT_EQ(cb1[0].error(), "superseded by a new request");
  ASSERT_FALSE(cb2[0].ok());
  EXPECT_EQ(cb2[0].error(), "superseded by a new request");
  EXPECT_TRUE(cb3[0].ok());
  EXPECT_TRUE(a.confirmed(5));
  // The live request's spec is the one installed on every hop.
  EXPECT_DOUBLE_EQ(queue_on(sender, router)->flow_rate_bps(5), 2e6);
  EXPECT_DOUBLE_EQ(queue_on(router, receiver)->flow_rate_bps(5), 2e6);
}

TEST_F(RsvpFixture, ResvOfASupersededRequestDoesNotConfirmTheNewerOne) {
  // The 1 Mbps request's RESV comes back after the 3 Mbps PATH has passed
  // the router: it must not complete the 3 Mbps request.
  std::vector<Status<std::string>> cb1;
  std::vector<double> egress_at_cb2;
  std::vector<bool> cb2_ok;
  RsvpAgent& a = agent_at(sender);
  a.reserve(5, receiver, FlowSpec{1e6, 16'000},
            [&](Status<std::string> s) { cb1.push_back(std::move(s)); });
  a.reserve(5, receiver, FlowSpec{3e6, 16'000}, [&](Status<std::string> s) {
    cb2_ok.push_back(s.ok());
    egress_at_cb2.push_back(queue_on(sender, router)->flow_rate_bps(5));
  });
  engine.run();
  ASSERT_EQ(cb1.size(), 1u);
  EXPECT_FALSE(cb1[0].ok());
  ASSERT_EQ(cb2_ok.size(), 1u);
  EXPECT_TRUE(cb2_ok[0]);
  EXPECT_DOUBLE_EQ(egress_at_cb2[0], 3e6);
  EXPECT_DOUBLE_EQ(queue_on(router, receiver)->flow_rate_bps(5), 3e6);
}

TEST_F(RsvpFixture, RefusedNewerRequestReportsItsResvErr) {
  // The newer request cannot be admitted: its ResvErr, not the older
  // request's RESV, decides its callback.
  std::vector<Status<std::string>> cb2;
  RsvpAgent& a = agent_at(sender);
  a.reserve(5, receiver, FlowSpec{1e6, 16'000}, nullptr);
  a.reserve(5, receiver, FlowSpec{50e6, 16'000},
            [&](Status<std::string> s) { cb2.push_back(std::move(s)); });
  engine.run();
  ASSERT_EQ(cb2.size(), 1u);
  ASSERT_FALSE(cb2[0].ok());
  EXPECT_NE(cb2[0].error().find("admission denied"), std::string::npos);
  EXPECT_FALSE(a.confirmed(5));
  EXPECT_FALSE(queue_on(sender, router)->has_reservation(5));
  EXPECT_FALSE(queue_on(router, receiver)->has_reservation(5));
}

TEST_F(RsvpFixture, AdmissionRejectsOverBudgetAndTearsDown) {
  // First flow takes 8 Mbps of the 9 Mbps reservable (0.9 * 10 Mbps).
  std::optional<bool> first;
  agent_at(sender).reserve(1, receiver, FlowSpec{8e6, 16'000},
                           [&](Status<std::string> s) { first = s.ok(); });
  engine.run();
  ASSERT_TRUE(first && *first);

  std::optional<Status<std::string>> second;
  agent_at(sender).reserve(2, receiver, FlowSpec{2e6, 16'000},
                           [&](Status<std::string> s) { second = std::move(s); });
  engine.run();
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->ok());
  EXPECT_NE(second->error().find("admission denied"), std::string::npos);
  EXPECT_FALSE(agent_at(sender).confirmed(2));
  // No partial state for flow 2 anywhere.
  EXPECT_FALSE(queue_on(sender, router)->has_reservation(2));
  EXPECT_FALSE(queue_on(router, receiver)->has_reservation(2));
  // Flow 1 untouched.
  EXPECT_TRUE(queue_on(router, receiver)->has_reservation(1));
}

/// Reserves `spec` for `flow` from sender to receiver and runs signaling
/// to completion; returns the outcome.
Status<std::string> reserve_and_run(RsvpFixture& f, FlowId flow, FlowSpec spec) {
  std::optional<Status<std::string>> out;
  f.agent_at(f.sender).reserve(flow, f.receiver, spec,
                               [&](Status<std::string> s) { out = std::move(s); });
  f.engine.run();
  EXPECT_TRUE(out.has_value());
  return out ? *out : Status<std::string>::err("no outcome");
}

TEST_F(RsvpFixture, NegativeRateIsRejectedAndCannotInflateTheBudget) {
  const auto negative = reserve_and_run(*this, 1, FlowSpec{-5e6, 16'000});
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.error().find("invalid flow spec"), std::string::npos);
  EXPECT_TRUE(reserve_and_run(*this, 2, FlowSpec{8e6, 16'000}).ok());
  // 8 + 2 Mbps exceeds the 9 Mbps reservable: a negative rate left behind
  // would have made room for it.
  EXPECT_FALSE(reserve_and_run(*this, 3, FlowSpec{2e6, 16'000}).ok());
  for (IntServQueue* q : {queue_on(sender, router), queue_on(router, receiver)}) {
    EXPECT_FALSE(q->has_reservation(1));
    EXPECT_FALSE(q->has_reservation(3));
    EXPECT_DOUBLE_EQ(q->reserved_rate_bps(), 8e6);
  }
}

TEST_F(RsvpFixture, NanRateIsRejectedAndReservedSumStaysFinite) {
  EXPECT_FALSE(reserve_and_run(*this, 1, FlowSpec{std::nan(""), 16'000}).ok());
  EXPECT_FALSE(reserve_and_run(*this, 2, FlowSpec{50e6, 16'000}).ok());
  for (IntServQueue* q : {queue_on(sender, router), queue_on(router, receiver)}) {
    EXPECT_FALSE(q->has_reservation(1));
    EXPECT_TRUE(std::isfinite(q->reserved_rate_bps()));
    EXPECT_LE(q->reserved_rate_bps(), 9e6);
  }
}

TEST_F(RsvpFixture, EmptyBucketIsRejected) {
  EXPECT_FALSE(reserve_and_run(*this, 1, FlowSpec{1e6, 0}).ok());
  EXPECT_FALSE(agent_at(sender).confirmed(1));
  EXPECT_FALSE(queue_on(sender, router)->has_reservation(1));
  EXPECT_FALSE(queue_on(router, receiver)->has_reservation(1));
}

TEST_F(RsvpFixture, ReleaseRemovesStateEverywhere) {
  std::optional<bool> ok;
  agent_at(sender).reserve(7, receiver, FlowSpec{1e6, 16'000},
                           [&](Status<std::string> s) { ok = s.ok(); });
  engine.run();
  ASSERT_TRUE(ok && *ok);
  agent_at(sender).release(7);
  engine.run();
  EXPECT_FALSE(agent_at(sender).confirmed(7));
  EXPECT_FALSE(queue_on(sender, router)->has_reservation(7));
  EXPECT_FALSE(queue_on(router, receiver)->has_reservation(7));
  EXPECT_FALSE(agent_at(receiver).has_path_state(7));
}

TEST_F(RsvpFixture, ModifyReplacesRate) {
  std::optional<bool> ok;
  agent_at(sender).reserve(7, receiver, FlowSpec{1e6, 16'000},
                           [&](Status<std::string> s) { ok = s.ok(); });
  engine.run();
  ASSERT_TRUE(ok && *ok);
  std::optional<bool> ok2;
  agent_at(sender).reserve(7, receiver, FlowSpec{2e6, 16'000},
                           [&](Status<std::string> s) { ok2 = s.ok(); });
  engine.run();
  ASSERT_TRUE(ok2 && *ok2);
  EXPECT_DOUBLE_EQ(queue_on(router, receiver)->flow_rate_bps(7), 2e6);
  EXPECT_DOUBLE_EQ(queue_on(router, receiver)->reserved_rate_bps(), 2e6);
}

TEST_F(RsvpFixture, TwoFlowsCoexist) {
  int confirmed = 0;
  agent_at(sender).reserve(1, receiver, FlowSpec{3e6, 16'000},
                           [&](Status<std::string> s) { confirmed += s.ok(); });
  agent_at(sender).reserve(2, receiver, FlowSpec{4e6, 16'000},
                           [&](Status<std::string> s) { confirmed += s.ok(); });
  engine.run();
  EXPECT_EQ(confirmed, 2);
  EXPECT_DOUBLE_EQ(queue_on(router, receiver)->reserved_rate_bps(), 7e6);
}

TEST_F(RsvpFixture, ReservationFromReceiverSideSeparateDirection) {
  // Reserve the reverse direction: receiver -> sender. Links receiver->router
  // and router->sender have no IntServ queue, so installation is a no-op
  // pass-through but signaling still succeeds end to end.
  std::optional<bool> ok;
  agent_at(receiver).reserve(9, sender, FlowSpec{1e6, 16'000},
                             [&](Status<std::string> s) { ok = s.ok(); });
  engine.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);
}

TEST(RsvpTeardown, ReservedPacketDueBeforeTheTeardownLeavesFirst) {
  // 1 Mbps IntServ link, 10 ms propagation: a 1000-byte packet takes 8 ms
  // to serialize. Flow 8 seq 1 is on the wire from 0 to 8 ms, flow 8 seq 2
  // waits in best effort and reserved flow 7 in its flow queue. At 8 ms
  // the transmitter picks flow 7, so a teardown at 12 ms, which the link
  // has not yet caught up to, must not demote it behind flow 8 seq 2.
  sim::Engine engine;
  Network net(engine);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig slow;
  slow.bandwidth_bps = 1e6;
  slow.propagation = milliseconds(10);
  net.add_link(a, b, slow, std::make_unique<IntServQueue>(IntServQueue::Config{}));
  net.add_link(b, a, slow);
  RsvpAgent agent_a(net, a);
  RsvpAgent agent_b(net, b);
  std::optional<bool> reserved;
  agent_a.reserve(7, b, FlowSpec{0.5e6, 16'000},
                  [&](Status<std::string> s) { reserved = s.ok(); });
  engine.run();
  ASSERT_TRUE(reserved && *reserved);

  struct Arrival {
    FlowId flow;
    std::uint64_t seq;
    std::int64_t at_ns;
  };
  std::vector<Arrival> arrivals;
  const TimePoint t0 = engine.now();
  net.set_receiver(b, [&](Packet&& p) {
    arrivals.push_back({p.flow, p.seq, (engine.now() - t0).ns()});
  });
  const auto packet = [&](FlowId flow, std::uint64_t seq) {
    Packet p;
    p.dst = b;
    p.size_bytes = 1000;
    p.flow = flow;
    p.seq = seq;
    return p;
  };
  net.send(a, packet(8, 1));
  net.send(a, packet(8, 2));
  net.send(a, packet(7, 1));
  engine.after(milliseconds(12), [&] { agent_a.release(7); });
  engine.run();

  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0].flow, 8u);
  EXPECT_EQ(arrivals[0].at_ns, milliseconds(18).ns());
  EXPECT_EQ(arrivals[1].flow, 7u);
  EXPECT_EQ(arrivals[1].at_ns, milliseconds(26).ns());
  EXPECT_EQ(arrivals[2].flow, 8u);
  EXPECT_EQ(arrivals[2].seq, 2u);
  EXPECT_GT(arrivals[2].at_ns, arrivals[1].at_ns);
  EXPECT_EQ(net.link_between(a, b)->queue().packets(), 0u);
}

TEST(RsvpTimeout, FailsAfterRetriesWhenPathBroken) {
  sim::Engine engine;
  Network net(engine);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("island");  // unreachable
  RsvpAgent agent(net, a);
  std::optional<Status<std::string>> outcome;
  agent.reserve(5, b, FlowSpec{1e6, 16'000},
                [&](Status<std::string> s) { outcome = std::move(s); });
  engine.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok());
  EXPECT_NE(outcome->error().find("timed out"), std::string::npos);
}

TEST(RsvpLoss, RetriesSucceedOverLossyLink) {
  // Signaling packets can be lost on a noisy segment; the PATH retry loop
  // must still establish the reservation.
  int successes = 0;
  const int trials = 10;
  for (int trial = 0; trial < trials; ++trial) {
    sim::Engine engine;
    Network net(engine);
    const NodeId a = net.add_node("a");
    const NodeId b = net.add_node("b");
    LinkConfig cfg;
    cfg.bandwidth_bps = 10e6;
    // 30% loss per packet, both directions.
    const auto seed = static_cast<std::uint64_t>(trial) + 100;
    const auto lossy = [](std::uint64_t queue_seed) {
      return std::make_unique<oracle::LossyQueue>(std::make_unique<DropTailQueue>(1000), 0.3,
                                                  queue_seed);
    };
    net.add_link(a, b, cfg, lossy(seed));
    net.add_link(b, a, cfg, lossy(seed + 1'000));
    RsvpAgent agent_a(net, a);
    RsvpAgent agent_b(net, b);
    std::optional<bool> ok;
    agent_a.reserve(5, b, FlowSpec{1e6, 16'000},
                    [&](Status<std::string> s) { ok = s.ok(); });
    engine.run();
    ASSERT_TRUE(ok.has_value());
    if (*ok) ++successes;
  }
  // P(single round trip survives) ~ 0.49; three attempts push overall
  // success to ~0.87. Require a clear majority.
  EXPECT_GE(successes, 6);
}

TEST(RsvpTimeout, SupersededRequestReportsError) {
  sim::Engine engine;
  Network net(engine);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig cfg;
  net.add_duplex_link(a, b, cfg);
  RsvpAgent agent_a(net, a);
  RsvpAgent agent_b(net, b);
  std::vector<std::string> events;
  agent_a.reserve(5, b, FlowSpec{1e6, 16'000}, [&](Status<std::string> s) {
    events.push_back(s.ok() ? "ok1" : "err1");
  });
  // Immediately supersede before signaling completes.
  agent_a.reserve(5, b, FlowSpec{2e6, 16'000}, [&](Status<std::string> s) {
    events.push_back(s.ok() ? "ok2" : "err2");
  });
  engine.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "err1");
  EXPECT_EQ(events[1], "ok2");
}

}  // namespace
}  // namespace aqm::net
