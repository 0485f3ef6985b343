// Quickstart: two simulated hosts, an RT-CORBA style ORB on each, one
// servant, a prioritized twoway call, and a look at what the RT machinery
// did (priority propagation, mapping, DSCP marking) — then a
// deadline-bounded call with automatic retry, two more of the ORB's own
// invocation stages.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>
#include <memory>

#include "net/network.hpp"
#include "orb/orb.hpp"
#include "orb/rt/dscp_mapping.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

int main() {
  using namespace aqm;

  // --- substrate: one engine, two hosts, one link ------------------------------
  sim::Engine engine;
  net::Network network(engine);
  const net::NodeId client_node = network.add_node("client-host");
  const net::NodeId server_node = network.add_node("server-host");
  net::LinkConfig link;
  link.bandwidth_bps = 100e6;           // 100 Mbps
  link.propagation = microseconds(200);  // campus LAN
  network.add_duplex_link(client_node, server_node, link);

  os::Cpu client_cpu(engine, "client-cpu");
  os::Cpu server_cpu(engine, "server-cpu");

  // --- ORBs --------------------------------------------------------------------
  orb::OrbEndpoint client(network, client_node, client_cpu);
  orb::OrbEndpoint server(network, server_node, server_cpu);

  // Map CORBA priorities onto DiffServ codepoints (the paper's TAO
  // enhancement); default mapping would leave everything best-effort.
  client.dscp_mappings() = orb::rt::DscpMapping::banded();

  // --- a servant ------------------------------------------------------------------
  orb::PoaPolicies policies;
  policies.priority_model = orb::PriorityModel::ClientPropagated;
  orb::Poa& poa = server.create_poa("demo", policies);
  auto servant = std::make_shared<orb::FunctionServant>(
      milliseconds(2),  // simulated CPU cost of handling the request
      [&](orb::ServerRequest& req) {
        std::cout << "[server " << engine.now().millis() << "ms] '" << req.operation
                  << "' handled at CORBA priority " << req.priority
                  << " (native " << server.priority_mappings().to_native(req.priority)
                  << ")\n";
        req.reply_body = {'p', 'o', 'n', 'g'};
      });
  const orb::ObjectRef ref = poa.activate_object("greeter", std::move(servant));
  std::cout << "activated object key '" << ref.object_key << "' on node "
            << network.node_name(ref.node) << "\n";

  // --- a prioritized client call -----------------------------------------------
  client.set_client_priority(30'000);  // RTCurrent: high RT-CORBA priority
  std::cout << "client DSCP for priority 30000: "
            << static_cast<int>(client.dscp_mappings().to_dscp(30'000))
            << " (46 = Expedited Forwarding)\n";

  orb::ObjectStub stub(client, ref);
  stub.twoway("ping", {'p', 'i', 'n', 'g'},
              [&](orb::CompletionStatus status, std::vector<std::uint8_t> body) {
                std::cout << "[client " << engine.now().millis() << "ms] reply: "
                          << orb::to_string(status) << " '"
                          << std::string(body.begin(), body.end()) << "'\n";
              });

  engine.run();

  // --- a deadline-bounded call ---------------------------------------------------
  std::cout << "\na deadline-bounded call with retry:\n";

  // Deadline + retry are ORB stages: the deadline travels in a service
  // context and the server drops expired requests pre-dispatch; a timeout
  // re-issues the call with exponential backoff.
  stub.set_deadline(milliseconds(50));
  stub.set_retry({3, milliseconds(10), 2.0});
  stub.twoway("ping", {'p', 'i', 'n', 'g'},
              [&](orb::CompletionStatus status, std::vector<std::uint8_t> body) {
                std::cout << "[client " << engine.now().millis()
                          << "ms] deadline-bounded reply: " << orb::to_string(status)
                          << " '" << std::string(body.begin(), body.end()) << "'\n";
              });
  engine.run();
  std::cout << "done at t=" << engine.now().millis() << "ms; client sent "
            << client.stats().requests_sent << " request(s), server dispatched "
            << server.stats().requests_dispatched << "\n";
  return 0;
}
