// Network QoS manager: owns the per-node RSVP agents and gives the rest of
// the middleware one place to request end-to-end network reservations —
// the "middleware retains the end-to-end perspective" role the paper
// assigns to QuO/TAO above the raw OS and network mechanisms.
#pragma once

#include <map>
#include <memory>

#include "net/network.hpp"
#include "net/rsvp.hpp"

namespace aqm::core {

class NetworkQosManager {
 public:
  explicit NetworkQosManager(net::Network& network) : network_(network) {}
  NetworkQosManager(const NetworkQosManager&) = delete;
  NetworkQosManager& operator=(const NetworkQosManager&) = delete;

  /// Creates (or returns) the RSVP agent for a node. Every node on a
  /// reserved path needs one — including routers.
  net::RsvpAgent& agent(net::NodeId node);

  /// Instantiates agents on every node currently in the network.
  void deploy_agents_everywhere();

  /// End-to-end reservation for `flow` from `src` to `dst`. Called again
  /// for a live flow it renegotiates: RSVP re-signals Path/Resv with the
  /// new spec and each hop's admission check replaces the flow's old rate,
  /// so the flow is never torn down to best effort mid-change.
  void reserve(net::FlowId flow, net::NodeId src, net::NodeId dst,
               const net::FlowSpec& spec, net::RsvpAgent::ReserveCallback cb);

  void release(net::FlowId flow, net::NodeId src);

 private:
  net::Network& network_;
  std::map<net::NodeId, std::unique_ptr<net::RsvpAgent>> agents_;
};

}  // namespace aqm::core
