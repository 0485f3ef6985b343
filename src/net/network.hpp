// Topology container and forwarding plane.
//
// A Network is a set of nodes (hosts and routers are structurally identical;
// hosts are simply nodes with a registered receiver callback) connected by
// unidirectional Links. Forwarding uses static shortest-path (hop count)
// routes recomputed lazily after topology changes.
//
// Control packets (RSVP signaling) are intercepted at every node that has a
// registered control handler, mirroring RSVP's hop-by-hop router-alert
// processing; data packets are forwarded transparently through routers and
// delivered to the destination node's receiver.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_index.hpp"
#include "common/time.hpp"
#include "net/flow_table.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace aqm::net {

/// Per-flow delivery accounting, maintained by the Network.
struct FlowCounters {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t delivered_bytes = 0;
};

class Network {
 public:
  using ReceiverFn = std::function<void(Packet&&)>;
  /// Control handler: invoked with (node where the packet arrived, packet).
  /// The handler owns forwarding of control packets.
  using ControlFn = std::function<void(NodeId, Packet&&)>;

  explicit Network(sim::Engine& engine);

  // --- topology ---------------------------------------------------------------

  NodeId add_node(std::string name);

  /// Adds a unidirectional link. Queue defaults to a drop-tail FIFO of 1000.
  Link& add_link(NodeId from, NodeId to, LinkConfig config,
                 std::unique_ptr<Queue> queue = nullptr);

  /// Adds both directions with identical configs and independent queues
  /// created by the factory (drop-tail 1000 if none given).
  void add_duplex_link(NodeId a, NodeId b, LinkConfig config,
                       const std::function<std::unique_ptr<Queue>()>& make_queue = nullptr);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::string& node_name(NodeId id) const;
  [[nodiscard]] Link* link_between(NodeId from, NodeId to);
  [[nodiscard]] const Link* link_between(NodeId from, NodeId to) const;

  // --- attachment --------------------------------------------------------------

  void set_receiver(NodeId node, ReceiverFn fn);
  /// Installs a receiver and returns the previous one (may be null), so
  /// taps like FlowMonitor can chain in front of an existing consumer
  /// instead of silently replacing it.
  ReceiverFn swap_receiver(NodeId node, ReceiverFn fn);
  void set_control_handler(NodeId node, ControlFn fn);

  // --- forwarding ---------------------------------------------------------------

  /// Injects a packet at `from`. Stamps src/sent_at, routes hop by hop.
  void send(NodeId from, Packet p);

  /// Next hop on the route from -> dst; kInvalidNode if unreachable.
  [[nodiscard]] NodeId next_hop(NodeId from, NodeId dst) const;

  /// Full node path from -> dst (inclusive); empty if unreachable.
  [[nodiscard]] std::vector<NodeId> path(NodeId from, NodeId dst) const;

  // --- accounting ----------------------------------------------------------------

  [[nodiscard]] const FlowCounters& flow(FlowId id) const;
  [[nodiscard]] const FlowCounters& totals() const;

  /// Dumps totals and per-flow delivery counters into a registry as
  /// "<prefix>.total.sent", "<prefix>.flow<id>.dropped", etc.
  void export_metrics(obs::MetricsRegistry& reg, std::string_view prefix) const;

  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// The packet arena every link's queue and in-flight FIFO draws from.
  [[nodiscard]] const PacketChunkPool& packet_pool() const { return packet_pool_; }

 private:
  struct Node {
    std::string name;
    ReceiverFn receiver;
    ControlFn control;
  };

  void deliver_local(NodeId node, Packet&& p);
  void forward(NodeId from, Packet&& p);
  void ensure_routes() const;
  void on_drop(const Packet& p);

  /// Directed-edge key for the link index.
  [[nodiscard]] static std::uint64_t link_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
           static_cast<std::uint32_t>(to);
  }
  /// Egress link index of the route from -> dst (from != dst); kNoSlot
  /// when unreachable.
  [[nodiscard]] std::uint32_t route(NodeId from, NodeId dst) const {
    if (routes_dirty_) ensure_routes();
    return route_link_[static_cast<std::size_t>(from) * nodes_.size() +
                       static_cast<std::size_t>(dst)];
  }

  sim::Engine& engine_;
  /// Declared before links_ so it outlives every FIFO drawing from it.
  PacketChunkPool packet_pool_;
  std::vector<Node> nodes_;
  /// Links in creation order, plus a (from,to) key -> position index for
  /// link_between. ensure_routes() sorts the per-node neighbor lists it
  /// derives, so routes stay identical to the old ordered-map build.
  std::vector<std::unique_ptr<Link>> links_;
  FlatIndex<std::uint64_t> link_index_;

  /// route_link_[from * n + dst]: position in links_ of the first hop's
  /// egress link; kNoSlot when unreachable or from == dst. Rebuilt lazily.
  mutable std::vector<std::uint32_t> route_link_;
  mutable bool routes_dirty_ = true;

  /// Per-flow counters in a flat indexed table (DESIGN.md §10); export
  /// goes through for_each_ordered so metric lines stay ascending-FlowId.
  FlowMap<FlowCounters> flows_;
  FlowCounters totals_;
  FlowCounters no_counters_{};
};

}  // namespace aqm::net
