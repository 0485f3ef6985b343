#include "net/rsvp.hpp"

#include <cassert>
#include <cmath>

#include "common/log.hpp"

namespace aqm::net {

// Signaling messages ride in packet payloads; keep them inside the inline
// buffer so emitting them never allocates.
static_assert(sizeof(PathMsg) <= PacketPayload::kInlineSize);
static_assert(sizeof(ResvMsg) <= PacketPayload::kInlineSize);
static_assert(sizeof(ResvErrMsg) <= PacketPayload::kInlineSize);
static_assert(sizeof(TearMsg) <= PacketPayload::kInlineSize);

namespace {

constexpr Duration kRetryTimeout = milliseconds(250);  // PATH re-sent after this
constexpr int kMaxRetries = 3;
constexpr std::uint32_t kMessageBytes = 128;  // wire size of every signaling packet

}  // namespace

RsvpAgent::RsvpAgent(Network& net, NodeId node) : net_(net), node_(node) {
  net_.set_control_handler(node_, [this](NodeId at, Packet&& p) { handle(at, std::move(p)); });
}

template <typename Msg>
void RsvpAgent::emit(NodeId dst, PacketKind kind, Msg msg) {
  Packet p;
  p.dst = dst;
  p.size_bytes = kMessageBytes;
  p.dscp = dscp::kCs6;
  p.kind = kind;
  p.payload = std::move(msg);
  net_.send(node_, std::move(p));
}

void RsvpAgent::reserve(FlowId flow, NodeId receiver, FlowSpec spec, ReserveCallback cb) {
  assert(flow != kNoFlow);
  assert(receiver != node_ && "cannot reserve to self");
  // Supersede any in-flight request for the same flow. The old request
  // leaves pending_ before its callback runs; if that callback issues a
  // newer request for the flow, the newer one is live and this call is
  // superseded in turn.
  if (pending_.contains(flow)) {
    finish_pending(flow, Status<std::string>::err("superseded by a new request"));
    if (pending_.contains(flow)) {
      if (cb) cb(Status<std::string>::err("superseded by a new request"));
      return;
    }
  }
  pending_[flow] = PendingReserve{std::move(cb), spec, receiver, ++last_request_};
  send_path(flow);
}

void RsvpAgent::send_path(FlowId flow) {
  PendingReserve* pending = pending_.find(flow);
  assert(pending != nullptr);
  ++pending->attempts;
  PathMsg msg;
  msg.flow = flow;
  msg.sender = node_;
  msg.receiver = pending->receiver;
  msg.spec = pending->spec;
  msg.phop = node_;
  msg.request = pending->request;
  // Local path state lets the sender process the returning RESV.
  path_state_[flow] = PathState{kInvalidNode, node_, msg.receiver, msg.spec, msg.request};
  emit(msg.receiver, PacketKind::RsvpPath, msg);
  arm_timeout(flow);
}

void RsvpAgent::arm_timeout(FlowId flow) {
  PendingReserve* pending = pending_.find(flow);
  assert(pending != nullptr);
  pending->timeout = net_.engine().after(kRetryTimeout, [this, flow] {
    const PendingReserve* pr = pending_.find(flow);
    if (pr == nullptr) return;
    if (pr->attempts >= kMaxRetries) {
      finish_pending(flow, Status<std::string>::err("reservation timed out"));
      return;
    }
    AQM_DEBUG() << "rsvp: node " << node_ << " retrying PATH for flow " << flow;
    send_path(flow);
  });
}

void RsvpAgent::finish_pending(FlowId flow, Status<std::string> status) {
  PendingReserve* pr = pending_.find(flow);
  if (pr == nullptr) return;
  net_.engine().cancel(pr->timeout);
  auto cb = std::move(pr->cb);
  pending_.erase(flow);
  if (cb) cb(std::move(status));
}

void RsvpAgent::release(FlowId flow) {
  TearMsg msg;
  msg.flow = flow;
  msg.sender = node_;
  const NodeId* conf = confirmed_.find(flow);
  const PathState* ps = path_state_.find(flow);
  NodeId receiver = kInvalidNode;
  if (conf != nullptr) {
    receiver = *conf;
  } else if (ps != nullptr) {
    receiver = ps->receiver;
  }
  finish_pending(flow, Status<std::string>::err("released"));
  confirmed_.erase(flow);
  path_state_.erase(flow);
  if (receiver == kInvalidNode) return;
  msg.receiver = receiver;
  // Remove our own egress reservation, then tell the rest of the path.
  remove_on_link(net_.next_hop(node_, receiver), flow);
  emit(receiver, PacketKind::RsvpTear, msg);
}

Status<std::string> RsvpAgent::install_on_link(NodeId neighbor, FlowId flow,
                                               const FlowSpec& spec) {
  if (neighbor == kInvalidNode) return Status<std::string>::err("no route for reservation");
  Link* link = net_.link_between(node_, neighbor);
  if (link == nullptr) return Status<std::string>::err("no link toward downstream hop");
  auto* q = dynamic_cast<IntServQueue*>(&link->queue());
  if (q == nullptr) {
    // Non-IntServ hop (e.g. an over-provisioned host uplink): nothing to
    // install, treat as admitted. Real deployments mix IntServ segments
    // with plain ones the same way.
    return {};
  }
  const double budget = link->config().bandwidth_bps * link->config().reservable_fraction;
  // On a modify, the flow's old rate is replaced rather than added.
  const double already = q->reserved_rate_bps() - q->flow_rate_bps(flow);
  obs::TraceRecorder* tr = net_.engine().tracer_for(obs::TraceCategory::Net);
  // A spec can arrive from outside the program (a decoded policy
  // override): a rate that is not a positive finite number, or an empty
  // bucket, would corrupt the reserved sum and let later requests
  // over-commit the link, so it is refused like an over-budget request.
  const bool valid = std::isfinite(spec.rate_bps) && spec.rate_bps > 0.0 &&
                     spec.bucket_bytes > 0;
  if (!valid || already + spec.rate_bps > budget) {
    if (tr != nullptr) {
      tr->instant(obs::TraceCategory::Net, "rsvp.reject",
                  tr->track("rsvp:" + net_.node_name(node_)), net_.engine().now(),
                  tr->current(),
                  {{"flow", static_cast<double>(flow)}, {"rate_bps", spec.rate_bps}});
    }
    return Status<std::string>::err((valid ? "admission denied on link "
                                           : "invalid flow spec on link ") +
                                    net_.node_name(node_) + "->" +
                                    net_.node_name(neighbor));
  }
  q->install_reservation(flow, spec.rate_bps, spec.bucket_bytes, net_.engine().now());
  if (tr != nullptr) {
    tr->instant(obs::TraceCategory::Net, "rsvp.admit",
                tr->track("rsvp:" + net_.node_name(node_)), net_.engine().now(),
                tr->current(),
                {{"flow", static_cast<double>(flow)}, {"rate_bps", spec.rate_bps}});
  }
  return {};
}

void RsvpAgent::remove_on_link(NodeId neighbor, FlowId flow) {
  if (neighbor == kInvalidNode) return;
  Link* link = net_.link_between(node_, neighbor);
  if (link == nullptr) return;
  if (auto* q = dynamic_cast<IntServQueue*>(&link->queue())) {
    // Replay the service decisions due before now against the queue as it
    // still is: a reserved packet a store-and-forward transmitter would
    // already have sent must not be demoted behind best effort.
    link->pump();
    q->remove_reservation(flow);
  }
}

void RsvpAgent::handle([[maybe_unused]] NodeId node, Packet&& p) {
  assert(node == node_);
  switch (p.kind) {
    case PacketKind::RsvpPath:
      on_path(p.payload.take<PathMsg>());
      return;
    case PacketKind::RsvpResv:
      on_resv(p.payload.take<ResvMsg>());
      return;
    case PacketKind::RsvpResvErr:
      on_resv_err(p.payload.take<ResvErrMsg>());
      return;
    case PacketKind::RsvpTear:
      on_tear(p.payload.take<TearMsg>());
      return;
    case PacketKind::Data:
      assert(false && "data packet routed to control handler");
      return;
  }
}

void RsvpAgent::on_path(PathMsg msg) {
  if (node_ != msg.sender) {
    path_state_[msg.flow] =
        PathState{msg.phop, msg.sender, msg.receiver, msg.spec, msg.request};
  }
  if (node_ == msg.receiver) {
    // Receiver: answer with RESV retracing the path.
    ResvMsg resv;
    resv.flow = msg.flow;
    resv.sender = msg.sender;
    resv.receiver = msg.receiver;
    resv.spec = msg.spec;
    resv.nhop = node_;
    resv.request = msg.request;
    emit(msg.phop, PacketKind::RsvpResv, resv);
    return;
  }
  // Transit (or sender) node: forward toward the receiver.
  PathMsg fwd = msg;
  fwd.phop = node_;
  emit(msg.receiver, PacketKind::RsvpPath, fwd);
}

void RsvpAgent::on_resv(ResvMsg msg) {
  const PathState* ps = path_state_.find(msg.flow);
  if (ps == nullptr) {
    AQM_DEBUG() << "rsvp: node " << node_ << " got RESV without path state, flow "
                << msg.flow;
    return;
  }
  if (ps->request != msg.request) {
    // This hop has seen the PATH of a newer request: the RESV is stale.
    AQM_DEBUG() << "rsvp: node " << node_ << " dropped stale RESV for flow " << msg.flow;
    return;
  }
  // Reserve on our egress toward the downstream node the RESV came from:
  // that link carries the flow's data.
  const auto admitted = install_on_link(msg.nhop, msg.flow, msg.spec);
  if (!admitted) {
    AQM_DEBUG() << "rsvp: flow " << msg.flow << " rejected at node " << node_ << ": "
                << admitted.error();
    // Tell the sender it failed...
    ResvErrMsg err;
    err.flow = msg.flow;
    err.sender = msg.sender;
    err.request = msg.request;
    err.reason = admitted.error();
    if (node_ == msg.sender) {
      on_resv_err(std::move(err));
    } else {
      emit(msg.sender, PacketKind::RsvpResvErr, err);
    }
    // ...and tear down what the downstream nodes already installed.
    TearMsg tear;
    tear.flow = msg.flow;
    tear.sender = msg.sender;
    tear.receiver = msg.receiver;
    emit(msg.receiver, PacketKind::RsvpTear, tear);
    return;
  }
  if (node_ == msg.sender) {
    confirmed_[msg.flow] = msg.receiver;
    finish_pending(msg.flow, {});
    return;
  }
  // Continue upstream along the recorded path. (ps is still valid:
  // FlowMap values never move, and nothing above erased the flow.)
  ResvMsg fwd = msg;
  fwd.nhop = node_;
  emit(ps->phop, PacketKind::RsvpResv, fwd);
}

void RsvpAgent::on_resv_err(ResvErrMsg msg) {
  if (node_ != msg.sender) {
    emit(msg.sender, PacketKind::RsvpResvErr, msg);
    return;
  }
  const PendingReserve* pr = pending_.find(msg.flow);
  if (pr == nullptr || pr->request != msg.request) return;  // not the live request
  confirmed_.erase(msg.flow);
  finish_pending(msg.flow, Status<std::string>::err(msg.reason));
}

void RsvpAgent::on_tear(TearMsg msg) {
  path_state_.erase(msg.flow);
  if (node_ != msg.receiver) {
    remove_on_link(net_.next_hop(node_, msg.receiver), msg.flow);
    emit(msg.receiver, PacketKind::RsvpTear, msg);
  }
}

}  // namespace aqm::net
