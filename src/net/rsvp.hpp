// RSVP/IntServ signaling (RFC 2205, simplified).
//
// Protocol shape mirrors real RSVP:
//  * The sender emits a PATH message toward the receiver. Every RSVP-capable
//    node on the way records path state (previous hop) and forwards it.
//  * The receiver answers with a RESV message that retraces the recorded
//    path hop by hop. Each node admits the flow on its egress link toward
//    the downstream node (sum of reserved rates <= reservable fraction of
//    link bandwidth) and installs a token-bucket reservation in that link's
//    IntServ queue.
//  * Admission failure generates a ResvErr to the sender and a Tear toward
//    the receiver that removes any partially installed state.
//  * PATH is retransmitted a few times if no confirmation arrives
//    (signaling packets are CS6 but can still be lost on non-IntServ hops).
//  * PATH, RESV and ResvErr carry the number of the sender's request. Path
//    state records the latest one, so a RESV for a superseded request is
//    dropped at the first hop that has seen the newer PATH, and the sender
//    completes a request only with a RESV or ResvErr bearing its number.
//
// One RsvpAgent is attached per node; the sender-side agent exposes the
// reserve/release API used by the A/V streaming service and the core
// network QoS manager.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/result.hpp"
#include "common/time.hpp"
#include "net/flow_table.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"

namespace aqm::net {

/// IntServ TSpec (simplified): token rate and bucket depth.
struct FlowSpec {
  double rate_bps = 0.0;
  std::uint32_t bucket_bytes = 16'000;

  friend bool operator==(const FlowSpec&, const FlowSpec&) = default;
};

struct PathMsg {
  FlowId flow = kNoFlow;
  NodeId sender = kInvalidNode;
  NodeId receiver = kInvalidNode;
  FlowSpec spec;
  NodeId phop = kInvalidNode;  // previous RSVP hop, updated in flight
  std::uint32_t request = 0;   // the sender's request number
};

struct ResvMsg {
  FlowId flow = kNoFlow;
  NodeId sender = kInvalidNode;
  NodeId receiver = kInvalidNode;
  FlowSpec spec;
  NodeId nhop = kInvalidNode;  // the downstream node that sent this RESV
  std::uint32_t request = 0;   // copied from the PATH it answers
};

struct ResvErrMsg {
  FlowId flow = kNoFlow;
  NodeId sender = kInvalidNode;
  std::uint32_t request = 0;  // copied from the refused RESV
  std::string reason;
};

struct TearMsg {
  FlowId flow = kNoFlow;
  NodeId sender = kInvalidNode;
  NodeId receiver = kInvalidNode;
};

class RsvpAgent {
 public:
  using ReserveCallback = std::function<void(Status<std::string>)>;

  RsvpAgent(Network& net, NodeId node);
  RsvpAgent(const RsvpAgent&) = delete;
  RsvpAgent& operator=(const RsvpAgent&) = delete;

  [[nodiscard]] NodeId node() const { return node_; }

  /// Requests an end-to-end reservation for `flow` from this node to
  /// `receiver`. The callback fires exactly once with the outcome.
  /// Re-reserving an existing flow re-signals with the new spec (modify);
  /// a request still in flight for the flow is superseded (its callback
  /// gets "superseded by a new request"), and the latest request is the
  /// live one even when a superseded callback issues it.
  /// Every IntServ hop refuses a spec whose rate is not a positive finite
  /// number or whose bucket is empty, through the same ResvErr path as an
  /// over-budget request.
  void reserve(FlowId flow, NodeId receiver, FlowSpec spec, ReserveCallback cb);

  /// Tears down a reservation established from this node.
  void release(FlowId flow);

  /// True once this (sender-side) agent has received the RESV confirmation.
  [[nodiscard]] bool confirmed(FlowId flow) const { return confirmed_.contains(flow); }

  /// True if this node holds PATH state for the flow (any hop).
  [[nodiscard]] bool has_path_state(FlowId flow) const { return path_state_.contains(flow); }

 private:
  struct PathState {
    NodeId phop;
    NodeId sender;
    NodeId receiver;
    FlowSpec spec;
    std::uint32_t request;  // of the latest PATH seen
  };
  struct PendingReserve {
    ReserveCallback cb;
    FlowSpec spec;
    NodeId receiver;
    std::uint32_t request;
    sim::EventId timeout{};
    int attempts = 0;
  };

  void handle(NodeId node, Packet&& p);
  void on_path(PathMsg msg);
  void on_resv(ResvMsg msg);
  void on_resv_err(ResvErrMsg msg);
  void on_tear(TearMsg msg);

  void send_path(FlowId flow);
  void arm_timeout(FlowId flow);
  void finish_pending(FlowId flow, Status<std::string> status);

  // Installs/removes a reservation on the egress link node_ -> neighbor.
  // Returns error string on admission failure. Removal first catches the
  // link's transmitter up, since it moves queued packets.
  Status<std::string> install_on_link(NodeId neighbor, FlowId flow, const FlowSpec& spec);
  void remove_on_link(NodeId neighbor, FlowId flow);

  template <typename Msg>
  void emit(NodeId dst, PacketKind kind, Msg msg);

  Network& net_;
  NodeId node_;
  // Per-flow soft state lives in paged FlowMaps (DESIGN.md §10): every
  // lookup on the signaling path is one directory probe, and an entry's
  // address is stable until it is erased. None of these tables is ever
  // iterated, so no ordering surface is needed here.
  FlowMap<PathState> path_state_;
  FlowMap<PendingReserve> pending_;
  FlowMap<NodeId> confirmed_;  // flow -> receiver (sender side)
  std::uint32_t last_request_ = 0;  // numbers this agent's reserve() calls
};

}  // namespace aqm::net
