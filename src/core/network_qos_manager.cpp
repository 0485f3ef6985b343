#include "core/network_qos_manager.hpp"

namespace aqm::core {

net::RsvpAgent& NetworkQosManager::agent(net::NodeId node) {
  auto it = agents_.find(node);
  if (it == agents_.end()) {
    it = agents_.emplace(node, std::make_unique<net::RsvpAgent>(network_, node)).first;
  }
  return *it->second;
}

void NetworkQosManager::deploy_agents_everywhere() {
  for (net::NodeId n = 0; n < static_cast<net::NodeId>(network_.node_count()); ++n) {
    agent(n);
  }
}

void NetworkQosManager::reserve(net::FlowId flow, net::NodeId src, net::NodeId dst,
                                const net::FlowSpec& spec,
                                net::RsvpAgent::ReserveCallback cb) {
  agent(src).reserve(flow, dst, spec, std::move(cb));
}

void NetworkQosManager::release(net::FlowId flow, net::NodeId src) {
  agent(src).release(flow);
}

}  // namespace aqm::core
