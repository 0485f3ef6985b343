#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <utility>

#include "common/log.hpp"
#include "obs/telemetry.hpp"

namespace aqm::net {

namespace {
std::unique_ptr<Queue> default_queue() { return std::make_unique<DropTailQueue>(1000); }
}  // namespace

Network::Network(sim::Engine& engine) : engine_(engine) {}

NodeId Network::add_node(std::string name) {
  nodes_.push_back(Node{std::move(name), nullptr, nullptr});
  routes_dirty_ = true;
  return static_cast<NodeId>(nodes_.size() - 1);
}

Link& Network::add_link(NodeId from, NodeId to, LinkConfig config,
                        std::unique_ptr<Queue> queue) {
  assert(from >= 0 && static_cast<std::size_t>(from) < nodes_.size());
  assert(to >= 0 && static_cast<std::size_t>(to) < nodes_.size());
  assert(from != to);
  if (!queue) queue = default_queue();
  auto link = std::make_unique<Link>(engine_, from, to, config, std::move(queue));
  Link& ref = *link;
  ref.bind_packet_pool(packet_pool_);
  ref.set_trace_name("link:" + node_name(from) + "->" + node_name(to));
  ref.set_delivery([this, to](Packet&& p) { deliver_local(to, std::move(p)); });
  ref.set_drop_hook([this](const Packet& p) { on_drop(p); });
  const auto fresh = static_cast<std::uint32_t>(links_.size());
  const auto [slot, inserted] = link_index_.try_insert(link_key(from, to), fresh);
  if (inserted) {
    links_.push_back(std::move(link));
  } else {
    links_[slot] = std::move(link);  // re-adding a pair replaces the link
  }
  routes_dirty_ = true;
  return ref;
}

void Network::add_duplex_link(NodeId a, NodeId b, LinkConfig config,
                              const std::function<std::unique_ptr<Queue>()>& make_queue) {
  add_link(a, b, config, make_queue ? make_queue() : nullptr);
  add_link(b, a, config, make_queue ? make_queue() : nullptr);
}

const std::string& Network::node_name(NodeId id) const {
  assert(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id)].name;
}

Link* Network::link_between(NodeId from, NodeId to) {
  const std::uint32_t slot = link_index_.find(link_key(from, to));
  return slot == kNoSlot ? nullptr : links_[slot].get();
}

const Link* Network::link_between(NodeId from, NodeId to) const {
  const std::uint32_t slot = link_index_.find(link_key(from, to));
  return slot == kNoSlot ? nullptr : links_[slot].get();
}

void Network::set_receiver(NodeId node, ReceiverFn fn) {
  assert(node >= 0 && static_cast<std::size_t>(node) < nodes_.size());
  nodes_[static_cast<std::size_t>(node)].receiver = std::move(fn);
}

Network::ReceiverFn Network::swap_receiver(NodeId node, ReceiverFn fn) {
  assert(node >= 0 && static_cast<std::size_t>(node) < nodes_.size());
  ReceiverFn& slot = nodes_[static_cast<std::size_t>(node)].receiver;
  ReceiverFn old = std::move(slot);
  slot = std::move(fn);
  return old;
}

void Network::set_control_handler(NodeId node, ControlFn fn) {
  assert(node >= 0 && static_cast<std::size_t>(node) < nodes_.size());
  nodes_[static_cast<std::size_t>(node)].control = std::move(fn);
}

void Network::send(NodeId from, Packet p) {
  assert(from >= 0 && static_cast<std::size_t>(from) < nodes_.size());
  assert(p.dst >= 0 && static_cast<std::size_t>(p.dst) < nodes_.size());
  p.src = p.src == kInvalidNode ? from : p.src;
  p.sent_at = engine_.now();

  auto& counters = flows_[p.flow];
  ++counters.sent;
  counters.sent_bytes += p.size_bytes;
  ++totals_.sent;
  totals_.sent_bytes += p.size_bytes;

  forward(from, std::move(p));
}

void Network::forward(NodeId from, Packet&& p) {
  if (from == p.dst) {
    deliver_local(from, std::move(p));
    return;
  }
  const std::uint32_t egress = route(from, p.dst);
  if (egress == kNoSlot) {
    AQM_WARN() << "net: no route " << node_name(from) << " -> " << node_name(p.dst)
               << ", packet dropped";
    on_drop(p);
    return;
  }
  links_[egress]->send(std::move(p));
}

void Network::deliver_local(NodeId node, Packet&& p) {
  Node& n = nodes_[static_cast<std::size_t>(node)];
  // RSVP-style hop-by-hop interception: any node with a control handler
  // processes control packets, even in transit.
  if (p.kind != PacketKind::Data) {
    if (n.control) {
      n.control(node, std::move(p));
      return;
    }
    if (node != p.dst) {
      forward(node, std::move(p));  // no agent here: forward transparently
      return;
    }
    return;  // control packet at destination without an agent: swallowed
  }
  if (node != p.dst) {
    forward(node, std::move(p));
    return;
  }
  auto& counters = flows_[p.flow];
  ++counters.delivered;
  counters.delivered_bytes += p.size_bytes;
  ++totals_.delivered;
  totals_.delivered_bytes += p.size_bytes;
  if (obs::TelemetryHub* th = engine_.telemetry()) {
    th->on_delivery(p.flow, engine_.now(), p.size_bytes);
  }
  if (n.receiver) n.receiver(std::move(p));
}

void Network::on_drop(const Packet& p) {
  ++flows_[p.flow].dropped;
  ++totals_.dropped;
  if (obs::TelemetryHub* th = engine_.telemetry()) {
    th->on_drop(p.flow, engine_.now(), p.trace);
  }
}

void Network::ensure_routes() const {
  if (!routes_dirty_) return;
  const auto n = nodes_.size();
  route_link_.assign(n * n, kNoSlot);

  // Adjacency as (neighbor, link position) pairs, each list sorted by
  // neighbor: BFS visits neighbors in ascending NodeId exactly as the old
  // ordered (from,to) map produced, keeping tie-broken shortest paths
  // byte-identical.
  std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> adj(n);
  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    adj[static_cast<std::size_t>(links_[i]->from())].emplace_back(links_[i]->to(), i);
  }
  for (auto& neighbors : adj) std::sort(neighbors.begin(), neighbors.end());

  // One BFS per source; each reached node inherits the egress link of the
  // tree path that reached it (the source's own links start the paths).
  for (std::size_t src = 0; src < n; ++src) {
    std::uint32_t* row = &route_link_[src * n];
    std::vector<bool> seen(n, false);
    std::deque<NodeId> frontier;
    frontier.push_back(static_cast<NodeId>(src));
    seen[src] = true;
    while (!frontier.empty()) {
      const auto u = static_cast<std::size_t>(frontier.front());
      frontier.pop_front();
      for (const auto& [v, link] : adj[u]) {
        if (seen[static_cast<std::size_t>(v)]) continue;
        seen[static_cast<std::size_t>(v)] = true;
        row[static_cast<std::size_t>(v)] = u == src ? link : row[u];
        frontier.push_back(v);
      }
    }
  }
  routes_dirty_ = false;
}

NodeId Network::next_hop(NodeId from, NodeId dst) const {
  if (from == dst) return dst;
  const std::uint32_t egress = route(from, dst);
  return egress == kNoSlot ? kInvalidNode : links_[egress]->to();
}

std::vector<NodeId> Network::path(NodeId from, NodeId dst) const {
  std::vector<NodeId> out;
  out.push_back(from);
  NodeId cur = from;
  while (cur != dst) {
    const NodeId hop = next_hop(cur, dst);
    if (hop == kInvalidNode) return {};
    out.push_back(hop);
    cur = hop;
  }
  return out;
}

const FlowCounters& Network::flow(FlowId id) const {
  const FlowCounters* c = flows_.find(id);
  return c == nullptr ? no_counters_ : *c;
}

const FlowCounters& Network::totals() const { return totals_; }

void Network::export_metrics(obs::MetricsRegistry& reg, std::string_view prefix) const {
  const std::string p(prefix);
  const auto emit = [&reg](const std::string& base, const FlowCounters& c) {
    reg.counter(base + ".sent").set(c.sent);
    reg.counter(base + ".delivered").set(c.delivered);
    reg.counter(base + ".dropped").set(c.dropped);
    reg.counter(base + ".sent_bytes").set(c.sent_bytes);
    reg.counter(base + ".delivered_bytes").set(c.delivered_bytes);
  };
  emit(p + ".total", totals_);
  flows_.for_each_ordered(
      [&](FlowId id, const FlowCounters& c) { emit(p + ".flow" + std::to_string(id), c); });
}

}  // namespace aqm::net
