// Figure 2: "Example Priority Propagation in RT-CORBA + DiffServ".
// A three-hop invocation (client -> middle-tier server -> server) across
// heterogeneous "operating systems" (QNX / LynxOS / Solaris RT priority
// ranges). The RTCorbaPriority service context carries the platform-
// independent priority; each host's priority-mapping manager translates it
// into that OS's native band, and the DSCP mapping marks the wire traffic.
// This binary prints the per-hop table the figure draws.
//
// Each CORBA priority is an independent trial (own engine / network / ORBs)
// on the shard-parallel experiment runner (--jobs N); output is
// byte-identical for every worker count.
#include <iostream>
#include <memory>
#include <optional>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "net/network.hpp"
#include "orb/orb.hpp"
#include "orb/rt/dscp_mapping.hpp"
#include "orb/rt/priority_mapping.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aqm;
using namespace aqm::bench;

struct HopObservation {
  orb::CorbaPriority relay_saw = -1;
  orb::CorbaPriority backend_saw = -1;
  os::Priority client_native = 0;
  os::Priority middle_native = 0;
  os::Priority server_native = 0;
  int client_dscp = 0;
  int middle_dscp = 0;
};

HopObservation run_propagation(orb::CorbaPriority corba) {
  sim::Engine engine;
  net::Network network(engine);
  const auto client_node = network.add_node("client (QNX)");
  const auto middle_node = network.add_node("middle-tier (LynxOS)");
  const auto server_node = network.add_node("server (Solaris)");
  net::LinkConfig link;
  network.add_duplex_link(client_node, middle_node, link);
  network.add_duplex_link(middle_node, server_node, link);

  os::Cpu client_cpu(engine, "qnx-cpu");
  os::Cpu middle_cpu(engine, "lynx-cpu");
  os::Cpu server_cpu(engine, "solaris-cpu");
  orb::OrbEndpoint client(network, client_node, client_cpu);
  orb::OrbEndpoint middle(network, middle_node, middle_cpu);
  orb::OrbEndpoint server(network, server_node, server_cpu);

  client.priority_mappings() = orb::rt::kQnxMapping;
  middle.priority_mappings() = orb::rt::kLynxOsMapping;
  server.priority_mappings() = orb::rt::kSolarisRtMapping;
  for (orb::OrbEndpoint* o : {&client, &middle, &server}) {
    o->dscp_mappings() = orb::rt::DscpMapping::banded();
  }

  // Backend and relay servants record what they observed.
  std::optional<orb::CorbaPriority> backend_saw;
  orb::Poa& backend_poa = server.create_poa("backend");
  const orb::ObjectRef backend_ref = backend_poa.activate_object(
      "sink", std::make_shared<orb::FunctionServant>(
                  microseconds(200),
                  [&](orb::ServerRequest& req) { backend_saw = req.priority; }));

  std::optional<orb::CorbaPriority> relay_saw;
  orb::Poa& relay_poa = middle.create_poa("relay");
  orb::ObjectStub backend_stub(middle, backend_ref);
  const orb::ObjectRef relay_ref = relay_poa.activate_object(
      "hop", std::make_shared<orb::FunctionServant>(
                 microseconds(200), [&](orb::ServerRequest& req) {
                   relay_saw = req.priority;
                   // RTCurrent pattern: re-assert the received priority on
                   // the outgoing binding before forwarding.
                   backend_stub.set_priority(req.priority);
                   backend_stub.oneway("forward", req.body);
                 }));

  // The client leg rides the ambient client priority (no per-binding pin),
  // exercising the ORB's default priority path.
  client.set_client_priority(corba);
  orb::ObjectStub relay_stub(client, relay_ref);
  relay_stub.oneway("send", std::vector<std::uint8_t>(256));
  engine.run();

  HopObservation obs;
  obs.relay_saw = relay_saw.value_or(-1);
  obs.backend_saw = backend_saw.value_or(-1);
  obs.client_native = client.priority_mappings().to_native(corba);
  obs.middle_native = middle.priority_mappings().to_native(corba);
  obs.server_native = server.priority_mappings().to_native(corba);
  obs.client_dscp = static_cast<int>(client.dscp_mappings().to_dscp(corba));
  obs.middle_dscp = static_cast<int>(middle.dscp_mappings().to_dscp(corba));
  return obs;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = core::parse_experiment_options(argc, argv, core::kNoSidecars);

  constexpr orb::CorbaPriority kPriorities[] = {4'000, 15'000, 30'000};

  core::Experiment<HopObservation> exp;
  for (const orb::CorbaPriority corba : kPriorities) {
    exp.add("fig2-prio-" + std::to_string(corba), static_cast<std::uint64_t>(corba),
            [corba](const core::TrialSpec&) { return run_propagation(corba); });
  }
  const auto results = exp.run(opts);

  banner("Figure 2: end-to-end priority propagation (RT-CORBA + DiffServ)");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const orb::CorbaPriority corba = kPriorities[i];
    const HopObservation& obs = results[i];
    TextTable table({"hop", "service-context priority", "native priority",
                     "DSCP on egress"});
    table.row({"client (QNX 1..31)", std::to_string(corba),
               std::to_string(obs.client_native), std::to_string(obs.client_dscp)});
    table.row({"middle-tier (LynxOS 0..255)", std::to_string(obs.relay_saw),
               std::to_string(obs.middle_native), std::to_string(obs.middle_dscp)});
    table.row({"server (Solaris RT 100..159)", std::to_string(obs.backend_saw),
               std::to_string(obs.server_native), "-"});
    std::cout << "CORBA priority " << corba << ":\n";
    table.print();
    std::cout << "\n";
  }

  std::cout << "The platform-independent priority rides the RTCorbaPriority\n"
            << "service context unchanged; each hop maps it to its own native\n"
            << "range and codepoint (the paper's QNX 16 / LynxOS 128 / Solaris\n"
            << "136 / DSCP EF picture).\n";
  return 0;
}
