#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "net/network.hpp"
#include "orb/transport.hpp"
#include "sim/engine.hpp"

namespace aqm::orb {
namespace {

MessageBuffer make_message(std::size_t size) {
  auto v = std::make_shared<std::vector<std::uint8_t>>(size);
  for (std::size_t i = 0; i < size; ++i) (*v)[i] = static_cast<std::uint8_t>(i * 7);
  return v;
}

struct TransportFixture : public ::testing::Test {
  TransportFixture() : net(engine) {
    a = net.add_node("a");
    b = net.add_node("b");
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 100e6;
    cfg.propagation = microseconds(50);
    net.add_duplex_link(a, b, cfg);
    ta = std::make_unique<GiopTransport>(net, a);
    tb = std::make_unique<GiopTransport>(net, b);
  }

  sim::Engine engine;
  net::Network net;
  net::NodeId a{};
  net::NodeId b{};
  std::unique_ptr<GiopTransport> ta;
  std::unique_ptr<GiopTransport> tb;
};

TEST_F(TransportFixture, SmallMessageSinglePacket) {
  std::optional<std::size_t> got;
  tb->set_message_handler([&](net::NodeId src, MessageView msg) {
    EXPECT_EQ(src, a);
    got = msg.size();
  });
  ta->send_message(b, make_message(500), net::dscp::kBestEffort, 1);
  engine.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, 500u);
  EXPECT_EQ(net.flow(1).sent, 1u);  // one fragment
  EXPECT_EQ(ta->messages_sent(), 1u);
  EXPECT_EQ(tb->messages_delivered(), 1u);
}

TEST_F(TransportFixture, LargeMessageFragmentsToMtu) {
  std::optional<std::size_t> got;
  tb->set_message_handler([&](net::NodeId, MessageView msg) { got = msg.size(); });
  // 10 KB with MTU 1500 and 40 B overhead: payload per packet 1460 -> 7 fragments.
  ta->send_message(b, make_message(10'000), net::dscp::kBestEffort, 2);
  engine.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, 10'000u);
  EXPECT_EQ(net.flow(2).sent, 7u);
}

TEST_F(TransportFixture, ContentSurvivesTransit) {
  std::vector<std::uint8_t> received;
  bool got = false;
  tb->set_message_handler([&](net::NodeId, MessageView msg) {
    received.assign(msg.data(), msg.data() + msg.size());
    got = true;
  });
  const auto original = make_message(5000);
  ta->send_message(b, original, net::dscp::kBestEffort);
  engine.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(received, *original);
}

TEST_F(TransportFixture, BidirectionalMessaging) {
  int a_got = 0;
  int b_got = 0;
  ta->set_message_handler([&](net::NodeId, MessageView) { ++a_got; });
  tb->set_message_handler([&](net::NodeId, MessageView) { ++b_got; });
  ta->send_message(b, make_message(100), net::dscp::kBestEffort);
  tb->send_message(a, make_message(100), net::dscp::kBestEffort);
  engine.run();
  EXPECT_EQ(a_got, 1);
  EXPECT_EQ(b_got, 1);
}

TEST_F(TransportFixture, DscpStampsEveryFragment) {
  // Verify via a tap at the receiving node before the transport reassembles:
  // easiest check is the DiffServ classification on the egress queue, so
  // here we just assert the transport's packets carry the DSCP by observing
  // flow counters on a marked flow (wire-level checks live in queue tests).
  tb->set_message_handler([](net::NodeId, MessageView) {});
  ta->send_message(b, make_message(4000), net::dscp::kEf, 3);
  engine.run();
  EXPECT_EQ(net.flow(3).delivered, 3u);  // 4000/1460 -> 3 fragments, all EF
}

TEST(TransportLoss, IncompleteMessageExpires) {
  sim::Engine engine;
  net::Network net(engine);
  const net::NodeId a = net.add_node("a");
  const net::NodeId b = net.add_node("b");
  net::LinkConfig slow;
  slow.bandwidth_bps = 1e6;
  // Queue of 2: a multi-fragment burst loses its tail.
  net.add_link(a, b, slow, std::make_unique<net::DropTailQueue>(2));
  net.add_link(b, a, slow);
  GiopTransport ta(net, a);
  GiopTransport tb(net, b);
  int delivered = 0;
  tb.set_message_handler([&](net::NodeId, MessageView) { ++delivered; });
  auto msg = std::make_shared<std::vector<std::uint8_t>>(10'000);  // 7 fragments
  ta.send_message(b, msg, net::dscp::kBestEffort, 4);
  engine.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(tb.messages_expired(), 1u);
  EXPECT_GT(net.flow(4).dropped, 0u);
}

TEST(TransportLoss, DuplicateFragmentsIgnored) {
  sim::Engine engine;
  net::Network net(engine);
  const net::NodeId a = net.add_node("a");
  const net::NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, net::LinkConfig{});
  GiopTransport tb(net, b);
  int delivered = 0;
  tb.set_message_handler([&](net::NodeId, MessageView) { ++delivered; });
  // Hand-craft duplicate fragments of a 2-fragment message.
  auto data = std::make_shared<const std::vector<std::uint8_t>>(3000);
  auto send_frag = [&](std::uint32_t idx) {
    net::Packet p;
    p.dst = b;
    p.size_bytes = 1500;
    p.payload = GiopFragment{55, idx, 2, idx * 1500, 1500, data};
    net.send(a, std::move(p));
  };
  send_frag(0);
  send_frag(0);  // duplicate
  send_frag(1);
  engine.run();
  EXPECT_EQ(delivered, 1);
}

TEST(TransportLoss, NonGiopPacketsIgnored) {
  sim::Engine engine;
  net::Network net(engine);
  const net::NodeId a = net.add_node("a");
  const net::NodeId b = net.add_node("b");
  net.add_duplex_link(a, b, net::LinkConfig{});
  GiopTransport tb(net, b);
  int delivered = 0;
  tb.set_message_handler([&](net::NodeId, MessageView) { ++delivered; });
  net::Packet p;
  p.dst = b;
  p.size_bytes = 100;  // cross-traffic packet, no payload
  net.send(a, std::move(p));
  engine.run();
  EXPECT_EQ(delivered, 0);
}

}  // namespace
}  // namespace aqm::orb
