#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <deque>

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
  ref.set_trace_name("link:" + node_name(from) + "->" + node_name(to));
  ref.set_delivery([this, to](Packet&& p) { deliver_local(to, std::move(p)); });
  ref.set_drop_hook([this](const Packet& p) { on_drop(p); });
  links_[link_key(from, to)] = std::move(link);
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
  const auto it = links_.find(link_key(from, to));
  return it == links_.end() ? nullptr : it->second.get();
}

const Link* Network::link_between(NodeId from, NodeId to) const {
  const auto it = links_.find(link_key(from, to));
  return it == links_.end() ? nullptr : it->second.get();
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
  const NodeId hop = next_hop(from, p.dst);
  if (hop == kInvalidNode) {
    AQM_WARN() << "net: no route " << node_name(from) << " -> " << node_name(p.dst)
               << ", packet dropped";
    on_drop(p);
    return;
  }
  Link* link = link_between(from, hop);
  assert(link != nullptr);
  link->send(std::move(p));
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
  next_hop_table_.assign(n * n, kInvalidNode);

  // Adjacency from the hashed link table. The table's iteration order is
  // unspecified, so sort each neighbor list: BFS then visits neighbors in
  // ascending NodeId exactly as the old ordered (from,to) map produced,
  // keeping tie-broken shortest paths byte-identical.
  std::vector<std::vector<NodeId>> adj(n);
  for (const auto& [key, link] : links_) {
    adj[static_cast<std::size_t>(key >> 32)].push_back(
        static_cast<NodeId>(static_cast<std::uint32_t>(key)));
  }
  for (auto& neighbors : adj) std::sort(neighbors.begin(), neighbors.end());

  // BFS from every destination over reversed edges would be cheaper, but
  // topologies here are tiny; do a BFS per source.
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<NodeId> parent(n, kInvalidNode);
    std::vector<bool> seen(n, false);
    std::deque<NodeId> frontier;
    frontier.push_back(static_cast<NodeId>(src));
    seen[src] = true;
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      for (const NodeId v : adj[static_cast<std::size_t>(u)]) {
        if (seen[static_cast<std::size_t>(v)]) continue;
        seen[static_cast<std::size_t>(v)] = true;
        parent[static_cast<std::size_t>(v)] = u;
        frontier.push_back(v);
      }
    }
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (dst == src || !seen[dst]) continue;
      // Walk back from dst to src to find the first hop.
      NodeId hop = static_cast<NodeId>(dst);
      while (parent[static_cast<std::size_t>(hop)] != static_cast<NodeId>(src)) {
        hop = parent[static_cast<std::size_t>(hop)];
        assert(hop != kInvalidNode);
      }
      next_hop_table_[src * n + dst] = hop;
    }
  }
  routes_dirty_ = false;
}

NodeId Network::next_hop(NodeId from, NodeId dst) const {
  ensure_routes();
  if (from == dst) return dst;
  return next_hop_table_[static_cast<std::size_t>(from) * nodes_.size() +
                         static_cast<std::size_t>(dst)];
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
