// End-to-end ORB behavior over the simulated network.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "net/network.hpp"
#include "orb/orb.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

namespace aqm::orb {
namespace {

struct OrbFixture : public ::testing::Test {
  OrbFixture()
      : net(engine),
        client_node(net.add_node("client")),
        server_node(net.add_node("server")),
        client_cpu(engine, "client-cpu"),
        server_cpu(engine, "server-cpu"),
        client(net, client_node, client_cpu),
        server(net, server_node, server_cpu) {
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 100e6;
    cfg.propagation = microseconds(100);
    net.add_duplex_link(client_node, server_node, cfg);
  }

  /// Registers an echo servant; returns its reference.
  ObjectRef make_echo(Poa& poa, Duration cost = microseconds(100)) {
    auto servant = std::make_shared<FunctionServant>(cost, [](ServerRequest& req) {
      req.reply_body = req.body;  // echo
    });
    return poa.activate_object("echo", std::move(servant));
  }

  sim::Engine engine;
  net::Network net;
  net::NodeId client_node;
  net::NodeId server_node;
  os::Cpu client_cpu;
  os::Cpu server_cpu;
  OrbEndpoint client;
  OrbEndpoint server;
};

TEST_F(OrbFixture, TwowayEchoRoundTrip) {
  Poa& poa = server.create_poa("app");
  const ObjectRef ref = make_echo(poa);
  std::optional<CompletionStatus> status;
  std::vector<std::uint8_t> reply;
  client.invoke(ref, "echo", {1, 2, 3}, InvokeOptions{},
                [&](CompletionStatus s, std::vector<std::uint8_t> body) {
                  status = s;
                  reply = std::move(body);
                });
  engine.run();
  ASSERT_TRUE(status);
  EXPECT_EQ(*status, CompletionStatus::Ok);
  EXPECT_EQ(reply, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(client.stats().requests_sent, 1u);
  EXPECT_EQ(client.stats().replies_ok, 1u);
  EXPECT_EQ(server.stats().requests_dispatched, 1u);
}

TEST_F(OrbFixture, OnewayDeliversWithoutReply) {
  Poa& poa = server.create_poa("app");
  int handled = 0;
  auto servant = std::make_shared<FunctionServant>(
      microseconds(50), [&](ServerRequest&) { ++handled; });
  const ObjectRef ref = poa.activate_object("sink", std::move(servant));
  InvokeOptions opts;
  opts.oneway = true;
  client.invoke(ref, "push", {42}, opts);
  engine.run();
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(client.stats().replies_ok, 0u);
}

TEST_F(OrbFixture, UnknownObjectAnswersObjectNotExist) {
  server.create_poa("app");
  ObjectRef bogus;
  bogus.node = server_node;
  bogus.object_key = "app/missing";
  std::optional<CompletionStatus> status;
  client.invoke(bogus, "op", {}, InvokeOptions{},
                [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  ASSERT_TRUE(status);
  EXPECT_EQ(*status, CompletionStatus::ObjectNotExist);
}

TEST_F(OrbFixture, UnknownPoaAnswersObjectNotExist) {
  ObjectRef bogus;
  bogus.node = server_node;
  bogus.object_key = "ghost/obj";
  std::optional<CompletionStatus> status;
  client.invoke(bogus, "op", {}, InvokeOptions{},
                [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  EXPECT_EQ(status, CompletionStatus::ObjectNotExist);
}

TEST_F(OrbFixture, TimeoutWhenServerUnreachable) {
  // Reference points at a node with no ORB message handler: request is
  // swallowed, client must time out.
  const net::NodeId ghost = net.add_node("ghost");
  net::LinkConfig cfg;
  net.add_duplex_link(client_node, ghost, cfg);
  ObjectRef ref;
  ref.node = ghost;
  ref.object_key = "a/b";
  std::optional<CompletionStatus> status;
  std::optional<TimePoint> when;
  InvokeOptions opts;
  opts.timeout = milliseconds(500);
  client.invoke(ref, "op", {}, opts, [&](CompletionStatus s, std::vector<std::uint8_t>) {
    status = s;
    when = engine.now();
  });
  engine.run();
  ASSERT_TRUE(status);
  EXPECT_EQ(*status, CompletionStatus::Timeout);
  EXPECT_GE(when->ns(), milliseconds(500).ns());
  EXPECT_EQ(client.stats().timeouts, 1u);
}

TEST_F(OrbFixture, ServantExceptionMapsToStatus) {
  Poa& poa = server.create_poa("app");
  auto servant = std::make_shared<FunctionServant>(
      microseconds(10), [](ServerRequest&) { throw Transient("overloaded"); });
  const ObjectRef ref = poa.activate_object("flaky", std::move(servant));
  std::optional<CompletionStatus> status;
  client.invoke(ref, "op", {}, InvokeOptions{},
                [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  EXPECT_EQ(status, CompletionStatus::Transient);
  EXPECT_EQ(client.stats().replies_error, 1u);
}

TEST_F(OrbFixture, ClientPropagatedPriorityReachesServant) {
  PoaPolicies policies;
  policies.priority_model = PriorityModel::ClientPropagated;
  Poa& poa = server.create_poa("app", policies);
  std::optional<CorbaPriority> seen;
  auto servant = std::make_shared<FunctionServant>(
      microseconds(10), [&](ServerRequest& req) { seen = req.priority; });
  const ObjectRef ref = poa.activate_object("obj", std::move(servant));

  client.set_client_priority(21'000);
  InvokeOptions opts;
  opts.oneway = true;
  client.invoke(ref, "op", {}, opts);
  engine.run();
  ASSERT_TRUE(seen);
  EXPECT_EQ(*seen, 21'000);
}

TEST_F(OrbFixture, ServerDeclaredPriorityOverridesClient) {
  PoaPolicies policies;
  policies.priority_model = PriorityModel::ServerDeclared;
  policies.server_priority = 30'000;
  Poa& poa = server.create_poa("app", policies);
  std::optional<CorbaPriority> seen;
  auto servant = std::make_shared<FunctionServant>(
      microseconds(10), [&](ServerRequest& req) { seen = req.priority; });
  const ObjectRef ref = poa.activate_object("obj", std::move(servant));
  EXPECT_EQ(ref.priority_model, PriorityModel::ServerDeclared);
  EXPECT_EQ(ref.server_priority, 30'000);

  client.set_client_priority(100);
  InvokeOptions opts;
  opts.oneway = true;
  client.invoke(ref, "op", {}, opts);
  engine.run();
  ASSERT_TRUE(seen);
  EXPECT_EQ(*seen, 30'000);
}

TEST_F(OrbFixture, PerInvokePriorityOverride) {
  Poa& poa = server.create_poa("app");
  std::optional<CorbaPriority> seen;
  auto servant = std::make_shared<FunctionServant>(
      microseconds(10), [&](ServerRequest& req) { seen = req.priority; });
  const ObjectRef ref = poa.activate_object("obj", std::move(servant));
  InvokeOptions opts;
  opts.oneway = true;
  opts.priority = 12'345;
  client.invoke(ref, "op", {}, opts);
  engine.run();
  EXPECT_EQ(seen, 12'345);
}

TEST_F(OrbFixture, TimestampContextGivesClientSendTime) {
  Poa& poa = server.create_poa("app");
  std::optional<TimePoint> send_time;
  std::optional<TimePoint> handled_at;
  auto servant = std::make_shared<FunctionServant>(
      milliseconds(1), [&](ServerRequest& req) {
        send_time = req.client_send_time;
        handled_at = req.handled_at;
      });
  const ObjectRef ref = poa.activate_object("obj", std::move(servant));
  InvokeOptions opts;
  opts.oneway = true;
  client.invoke(ref, "op", std::vector<std::uint8_t>(5000), opts);
  engine.run();
  ASSERT_TRUE(send_time && handled_at);
  // End-to-end latency is positive and includes the 1ms servant cost.
  EXPECT_GT((*handled_at - *send_time).ns(), milliseconds(1).ns());
}

TEST_F(OrbFixture, StubConvenienceWrappers) {
  Poa& poa = server.create_poa("app");
  const ObjectRef ref = make_echo(poa);
  ObjectStub stub(client, ref);
  stub.set_flow(77);
  std::optional<CompletionStatus> status;
  stub.twoway("echo", {5}, [&](CompletionStatus s, std::vector<std::uint8_t>) {
    status = s;
  });
  engine.run();
  EXPECT_EQ(status, CompletionStatus::Ok);
  EXPECT_GT(net.flow(77).sent, 0u);
}

TEST_F(OrbFixture, InvokeRejectsInvalidArgs) {
  ObjectRef invalid;
  EXPECT_THROW(client.invoke(invalid, "op", {}, InvokeOptions{}, nullptr), BadParam);
  ObjectRef ok;
  ok.node = server_node;
  ok.object_key = "a/b";
  EXPECT_THROW(client.invoke(ok, "op", {}, InvokeOptions{}, nullptr), BadParam);
}

TEST_F(OrbFixture, PoaDemuxManyServants) {
  Poa& poa = server.create_poa("app");
  int hit = -1;
  for (int i = 0; i < 100; ++i) {
    auto servant = std::make_shared<FunctionServant>(
        microseconds(10), [&hit, i](ServerRequest&) { hit = i; });
    poa.activate_object("obj" + std::to_string(i), std::move(servant));
  }
  EXPECT_EQ(poa.servant_count(), 100u);
  ObjectRef ref;
  ref.node = server_node;
  ref.object_key = "app/obj42";
  InvokeOptions opts;
  opts.oneway = true;
  client.invoke(ref, "op", {}, opts);
  engine.run();
  EXPECT_EQ(hit, 42);
}

TEST_F(OrbFixture, DeactivatedObjectStopsReceiving) {
  Poa& poa = server.create_poa("app");
  const ObjectRef ref = make_echo(poa);
  poa.deactivate_object("echo");
  std::optional<CompletionStatus> status;
  client.invoke(ref, "echo", {}, InvokeOptions{},
                [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  EXPECT_EQ(status, CompletionStatus::ObjectNotExist);
}

TEST_F(OrbFixture, CollocatedCallSkipsTheWire) {
  // Client and servant on the same ORB: the call must complete without any
  // network traffic and far faster than the propagation delay.
  Poa& poa = client.create_poa("local");
  const ObjectRef ref = make_echo(poa, microseconds(10));
  const auto packets_before = net.totals().sent;
  std::optional<TimePoint> done;
  client.invoke(ref, "echo", {1}, InvokeOptions{},
                [&](CompletionStatus s, std::vector<std::uint8_t>) {
                  EXPECT_EQ(s, CompletionStatus::Ok);
                  done = engine.now();
                });
  engine.run();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(client.stats().collocated_calls, 1u);
  // Request bytes never hit the network (the loopback reply may).
  EXPECT_LE(net.totals().sent - packets_before, 1u);
  // Faster than even one wire round trip (2 x 100us propagation): all the
  // remaining time is marshal/demux/servant CPU cost.
  EXPECT_LT(done->ns(), microseconds(200).ns());
}

TEST_F(OrbFixture, RemoteCallIsNotCountedCollocated) {
  Poa& poa = server.create_poa("app");
  const ObjectRef ref = make_echo(poa);
  std::optional<CompletionStatus> status;
  client.invoke(ref, "echo", {1}, InvokeOptions{},
                [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  EXPECT_EQ(status, CompletionStatus::Ok);
  EXPECT_EQ(client.stats().collocated_calls, 0u);
}

TEST_F(OrbFixture, DscpMappingManagerControlsMarking) {
  // With the default best-effort mapping installed, high priority still
  // maps to DSCP 0; with the banded mapping it maps to EF.
  EXPECT_EQ(client.dscp_mappings().to_dscp(30'000), net::dscp::kBestEffort);
  client.dscp_mappings() = rt::DscpMapping::banded();
  EXPECT_EQ(client.dscp_mappings().to_dscp(30'000), net::dscp::kEf);
  EXPECT_EQ(client.dscp_mappings().to_dscp(0), net::dscp::kBestEffort);
  client.dscp_mappings() = rt::DscpMapping{};  // restore default
  EXPECT_EQ(client.dscp_mappings().to_dscp(30'000), net::dscp::kBestEffort);
}

}  // namespace
}  // namespace aqm::orb
