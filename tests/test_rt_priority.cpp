// Figure 2 of the paper: end-to-end priority propagation across
// heterogeneous hosts. The RTCorbaPriority service context carries the
// platform-independent priority; each host's priority-mapping manager
// translates it to that OS's native range (QNX / LynxOS / Solaris RT).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "orb/orb.hpp"
#include "orb/rt/priority_mapping.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

namespace aqm::orb {
namespace {

/// Client (QNX) -> middle-tier (LynxOS) -> server (Solaris RT), like the
/// paper's Figure 2 topology.
struct Figure2Fixture : public ::testing::Test {
  Figure2Fixture()
      : net(engine),
        client_node(net.add_node("client-qnx")),
        middle_node(net.add_node("middle-lynxos")),
        server_node(net.add_node("server-solaris")),
        client_cpu(engine, "qnx-cpu"),
        middle_cpu(engine, "lynx-cpu"),
        server_cpu(engine, "solaris-cpu"),
        client(net, client_node, client_cpu),
        middle(net, middle_node, middle_cpu),
        server(net, server_node, server_cpu) {
    net::LinkConfig link;
    net.add_duplex_link(client_node, middle_node, link);
    net.add_duplex_link(middle_node, server_node, link);
    client.priority_mappings() = rt::kQnxMapping;
    middle.priority_mappings() = rt::kLynxOsMapping;
    server.priority_mappings() = rt::kSolarisRtMapping;
  }

  sim::Engine engine;
  net::Network net;
  net::NodeId client_node;
  net::NodeId middle_node;
  net::NodeId server_node;
  os::Cpu client_cpu;
  os::Cpu middle_cpu;
  os::Cpu server_cpu;
  OrbEndpoint client;
  OrbEndpoint middle;
  OrbEndpoint server;
};

TEST_F(Figure2Fixture, OsMappingsCoverTheirNativeRanges) {
  // CORBA extremes land on each OS's band edges.
  EXPECT_EQ(client.priority_mappings().to_native(0), 1);        // QNX 1..31
  EXPECT_EQ(client.priority_mappings().to_native(32'767), 31);
  EXPECT_EQ(middle.priority_mappings().to_native(0), 0);        // LynxOS 0..255
  EXPECT_EQ(middle.priority_mappings().to_native(32'767), 255);
  EXPECT_EQ(server.priority_mappings().to_native(0), 100);      // Solaris RT 100..159
  EXPECT_EQ(server.priority_mappings().to_native(32'767), 159);
}

TEST_F(Figure2Fixture, PriorityPropagatesUnchangedAcrossHops) {
  constexpr CorbaPriority kPriority = 15'000;

  // Backend servant records the propagated CORBA priority.
  std::optional<CorbaPriority> backend_saw;
  Poa& backend_poa = server.create_poa("backend");
  auto backend = std::make_shared<FunctionServant>(
      microseconds(100), [&](ServerRequest& req) { backend_saw = req.priority; });
  const ObjectRef backend_ref = backend_poa.activate_object("sink", std::move(backend));

  // Middle-tier relay: forwards to the backend at the *request's* priority
  // (the RTCurrent pattern: the propagated priority drives nested calls).
  std::optional<CorbaPriority> middle_saw;
  Poa& relay_poa = middle.create_poa("relay");
  auto relay = std::make_shared<FunctionServant>(
      microseconds(100), [&](ServerRequest& req) {
        middle_saw = req.priority;
        InvokeOptions opts;
        opts.oneway = true;
        opts.priority = req.priority;
        middle.invoke(backend_ref, "forward", req.body, opts);
      });
  const ObjectRef relay_ref = relay_poa.activate_object("hop", std::move(relay));

  client.set_client_priority(kPriority);
  InvokeOptions opts;
  opts.oneway = true;
  client.invoke(relay_ref, "send", {1, 2, 3}, opts);
  engine.run();

  // The platform-independent priority is identical end to end...
  ASSERT_TRUE(middle_saw && backend_saw);
  EXPECT_EQ(*middle_saw, kPriority);
  EXPECT_EQ(*backend_saw, kPriority);

  // ...while its native translation differs per OS (the point of Fig. 2).
  const os::Priority qnx = client.priority_mappings().to_native(kPriority);
  const os::Priority lynx = middle.priority_mappings().to_native(kPriority);
  const os::Priority solaris = server.priority_mappings().to_native(kPriority);
  EXPECT_NE(qnx, lynx);
  EXPECT_NE(lynx, solaris);
  EXPECT_GE(qnx, 1);
  EXPECT_LE(qnx, 31);
  EXPECT_GE(solaris, 100);
  EXPECT_LE(solaris, 159);
}

TEST_F(Figure2Fixture, NativeExecutionUsesLocalMapping) {
  // Verify the backend job actually runs at the Solaris-mapped native
  // priority by peeking at the CPU while it executes.
  constexpr CorbaPriority kPriority = 20'000;
  const os::Priority expected_native = server.priority_mappings().to_native(kPriority);

  std::optional<os::Priority> observed;
  Poa& poa = server.create_poa("backend");
  auto servant = std::make_shared<FunctionServant>(
      milliseconds(5), [&](ServerRequest&) {});
  const ObjectRef ref = poa.activate_object("sink", std::move(servant));

  client.set_client_priority(kPriority);
  InvokeOptions opts;
  opts.oneway = true;
  client.invoke(ref, "op", {}, opts);
  // Sample the server CPU while the request should be executing.
  engine.after(milliseconds(3), [&] { observed = server_cpu.running_priority(); });
  engine.run();
  ASSERT_TRUE(observed.has_value());
  EXPECT_EQ(*observed, expected_native);
}

TEST_F(Figure2Fixture, MappingInstalledAfterPoaCreationReachesItsThreadPool) {
  // The POA's thread pool reads the ORB's installed mapping at dispatch,
  // so an install after the POA exists still decides the native priority.
  constexpr CorbaPriority kPriority = 20'000;
  Poa& poa = server.create_poa("backend");
  const ObjectRef ref = poa.activate_object(
      "sink", std::make_shared<FunctionServant>(milliseconds(5), [](ServerRequest&) {}));
  server.priority_mappings() = rt::kQnxMapping;

  std::optional<os::Priority> observed;
  client.set_client_priority(kPriority);
  InvokeOptions opts;
  opts.oneway = true;
  client.invoke(ref, "op", {}, opts);
  engine.after(milliseconds(3), [&] { observed = server_cpu.running_priority(); });
  engine.run();
  ASSERT_TRUE(observed.has_value());
  EXPECT_EQ(*observed, rt::kQnxMapping.to_native(kPriority));
  EXPECT_NE(*observed, rt::kSolarisRtMapping.to_native(kPriority));
}

TEST(RtMappings, RoundTripWithinEachOsBand) {
  for (const rt::PriorityMapping& m :
       {rt::kQnxMapping, rt::kLynxOsMapping, rt::kSolarisRtMapping}) {
    for (CorbaPriority p = 0; p <= kMaxCorbaPriority; p += 1111) {
      const os::Priority native = m.to_native(p);
      const CorbaPriority back = m.to_corba(native);
      // Coarse bands (QNX has 31 levels) quantize heavily; the round trip
      // must stay within one native step.
      const double step = 32767.0 / 30.0;
      EXPECT_NEAR(back, p, step + 1);
    }
  }
}

}  // namespace
}  // namespace aqm::orb
