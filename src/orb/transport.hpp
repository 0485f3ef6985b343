// GIOP transport adapter: moves whole GIOP messages between nodes over the
// packet network, fragmenting to the MTU on send and reassembling on
// receive. Packet loss under congestion means messages can arrive
// incomplete; reassembly state expires after a timeout and the message
// counts as lost (video semantics: no retransmission, matching the paper's
// streaming experiments).
//
// Batching session layer (DESIGN.md §11): on a flow with a BatchPolicy,
// small messages to the same (destination, DSCP, flow) accumulate in a
// staging buffer and ship as one wire write — one fragmentation pass, one
// per-packet framing overhead — framed under a "GBAT" header and unpacked on the
// receive side into zero-copy MessageViews over the batch buffer. Flushes
// are driven by byte/count thresholds or an engine-timer deadline, so the
// batched world stays exactly as deterministic as the unbatched one.
// Batching is per flow: a flow without a policy (the default) ships every
// message as its own wire write. Traffic sent under net::kNoFlow (ORB
// replies, for one) batches when kNoFlow itself has a policy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/flat_index.hpp"
#include "common/time.hpp"
#include "net/flow_table.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "orb/buffer_pool.hpp"  // MessageBuffer
#include "sim/engine.hpp"

namespace aqm::orb {

/// What each network packet carries.
struct GiopFragment {
  std::uint64_t message_id = 0;
  std::uint32_t index = 0;
  std::uint32_t count = 1;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
  MessageBuffer data;  // the full message; [offset, offset+length) is this fragment
};

/// Coalescing flush policy of one flow (DESIGN.md §11). A staged batch
/// ships when it reaches `max_bytes` or `max_messages`, or when
/// `flush_delay` elapses after its first message was staged — whichever
/// comes first. The flush policy is itself QoS (a latency/efficiency
/// trade), so it is also the EndToEndQosPolicy's `oneway_batching` field,
/// which QoSSession installs on the binding's flow.
struct BatchPolicy {
  std::uint32_t max_bytes = 16 * 1024;
  std::uint32_t max_messages = 64;
  Duration flush_delay = microseconds(500);

  friend bool operator==(const BatchPolicy&, const BatchPolicy&) = default;
};

struct TransportConfig {
  std::uint32_t mtu = net::kDefaultMtu;
  /// Send fragments ECN-capable: RED routers then mark instead of drop
  /// under incipient congestion, and ce_marks() exposes the feedback.
  bool ecn_capable = false;
};

/// A borrowed window into a delivered message. For unbatched traffic the
/// view spans the whole MessageBuffer; for batched traffic it is a slice of
/// the shared batch buffer — the zero-copy demux handoff. The view keeps
/// the underlying buffer alive; copying the view copies only the
/// shared_ptr, never the bytes. It also carries the trace id the message's
/// packets carried (`Packet::trace`), which is how a traced request's id
/// reaches the server: no trace id is ever encoded into the message.
class MessageView {
 public:
  MessageView() = default;
  /* implicit */ MessageView(MessageBuffer whole, std::uint64_t trace = 0)
      : owner_(std::move(whole)),
        data_(owner_ ? owner_->data() : nullptr),
        size_(owner_ ? owner_->size() : 0),
        trace_(trace) {}
  MessageView(MessageBuffer owner, const std::uint8_t* data, std::size_t size,
              std::uint64_t trace)
      : owner_(std::move(owner)), data_(data), size_(size), trace_(trace) {}

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return {data_, size_}; }
  /// The buffer keeping this view alive (the whole batch for a slice).
  [[nodiscard]] const MessageBuffer& owner() const { return owner_; }
  /// The sender's trace id, 0 when untraced. Every entry of a batch
  /// carries the batch's id: that of its first staged message.
  [[nodiscard]] std::uint64_t trace() const { return trace_; }

 private:
  friend class GiopTransport;
  /// Repoints the view at another slice of the same owner. Only the
  /// transport's batch-unpack loop uses this: one owner reference per
  /// batch, rebound per entry, so demux adds no refcount traffic.
  void rebind(const std::uint8_t* data, std::size_t size) {
    data_ = data;
    size_ = size;
  }

  MessageBuffer owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t trace_ = 0;
};

class GiopTransport {
 public:
  /// (source node, complete message bytes — possibly a view into a batch).
  /// The view is borrowed for the duration of the callback; a handler that
  /// retains the bytes past its return must copy the view (cheap: one
  /// shared_ptr, never the payload).
  using MessageHandler = std::function<void(net::NodeId src, const MessageView& msg)>;

  GiopTransport(net::Network& net, net::NodeId node, TransportConfig config = {});
  GiopTransport(const GiopTransport&) = delete;
  GiopTransport& operator=(const GiopTransport&) = delete;

  [[nodiscard]] net::NodeId node() const { return node_; }

  void set_message_handler(MessageHandler handler) { handler_ = std::move(handler); }

  /// Sends a message to `dst`, stamped with the given DSCP and flow id.
  /// A nonzero `trace` rides on every fragment so per-hop network events
  /// chain to the originating request. On a flow with a batching policy,
  /// the message may be staged instead of shipped immediately.
  void send_message(net::NodeId dst, MessageBuffer msg, net::Dscp dscp,
                    net::FlowId flow = net::kNoFlow, std::uint64_t trace = 0);

  /// Flushes the staging buffer of one (dst, dscp, flow) key, if any.
  void flush(net::NodeId dst, net::Dscp dscp, net::FlowId flow);
  /// Flushes every active staging buffer, in sorted (dst, dscp, flow)
  /// order — the pipelining submit/flush boundary.
  void flush_all();

  /// Per-flow coalescing (QoSSession plumbs EndToEndQosPolicy's
  /// oneway_batching here). A flow batches exactly when it has a policy;
  /// clearing it ships whatever the departing policy left staged.
  void set_flow_batching(net::FlowId flow, BatchPolicy policy);
  void clear_flow_batching(net::FlowId flow);
  /// The flow's batching policy, or null when the flow is unbatched.
  [[nodiscard]] const BatchPolicy* flow_batching(net::FlowId flow) const;

  /// Logical messages passed to send_message (batched or not).
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  /// Logical messages handed to the handler (each batch entry counts).
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  /// Wire-level messages whose reassembly expired with fragments missing
  /// (a lost batch counts once, however many messages it carried).
  [[nodiscard]] std::uint64_t messages_expired() const { return expired_; }
  /// Congestion-experienced marks seen on received packets of a flow
  /// (cumulative). The feedback signal for ECN-aware QuO adaptation.
  [[nodiscard]] std::uint64_t ce_marks(net::FlowId flow) const;

  // --- batching counters ------------------------------------------------------
  [[nodiscard]] std::uint64_t batches_sent() const { return batches_sent_; }
  [[nodiscard]] std::uint64_t batched_messages() const { return batched_messages_; }
  [[nodiscard]] std::uint64_t batches_delivered() const { return batches_delivered_; }

 private:
  struct Reassembly {
    std::uint32_t expected = 0;
    std::uint32_t arrived = 0;
    std::vector<std::uint64_t> seen;  // bitmap; capacity survives slot recycling
    MessageBuffer data;
    sim::EventId expiry{};
    std::uint64_t trace = 0;
    net::NodeId src = net::kInvalidNode;
    std::uint64_t message_id = 0;
  };

  /// One staging buffer per (dst, dscp, flow) key. Slots are created on
  /// first use and deactivated (never erased) on flush, so the key set
  /// stays allocation-stable.
  struct Staging {
    std::shared_ptr<std::vector<std::uint8_t>> buf;  // pooled; null while inactive
    std::uint32_t count = 0;
    sim::EventId flush_event{};
    std::uint64_t trace = 0;  // the first staged message's trace labels the batch
    net::NodeId dst = net::kInvalidNode;
    net::Dscp dscp = 0;
    net::FlowId flow = net::kNoFlow;
    bool active = false;
  };

  /// The plain wire path: fragment to MTU and send. Unbatched messages and
  /// flushed batches both go through here.
  void transmit(net::NodeId dst, MessageBuffer msg, net::Dscp dscp, net::FlowId flow,
                std::uint64_t trace);
  void on_packet(net::Packet&& p);
  /// Hands a complete wire message and its packets' trace id up: unpacks
  /// "GBAT" batches into one view per entry, passes everything else
  /// through as a whole-buffer view.
  void deliver(net::NodeId src, MessageBuffer msg, std::uint64_t trace);
  void expire(net::NodeId src, std::uint64_t message_id);

  [[nodiscard]] std::uint32_t staging_slot(net::NodeId dst, net::Dscp dscp,
                                           net::FlowId flow);
  void flush_slot(std::uint32_t slot);
  void deadline_flush(std::uint32_t slot);

  std::uint32_t acquire_reassembly_slot();
  void release_reassembly_slot(std::uint32_t slot);

  [[nodiscard]] static Key128 reassembly_key(net::NodeId src, std::uint64_t message_id) {
    return {static_cast<std::uint32_t>(src), message_id};
  }
  [[nodiscard]] static Key128 staging_key(net::NodeId dst, net::Dscp dscp,
                                          net::FlowId flow) {
    return {(static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 8) | dscp, flow};
  }

  /// Engine recorder iff ORB tracing is on; binds the "giop:<node>" lane on
  /// first use.
  [[nodiscard]] obs::TraceRecorder* tracer();

  net::Network& net_;
  net::NodeId node_;
  TransportConfig config_;
  MessageHandler handler_;
  std::uint64_t next_message_id_ = 1;
  net::FlowMap<std::uint64_t> flow_seq_;
  net::FlowMap<std::uint64_t> ce_marks_;

  // Reassembly: flat (src, message_id)-keyed index over a recycled slot
  // arena — the steady-state receive path touches no allocator.
  FlatIndex<Key128> reassembly_index_;
  std::vector<Reassembly> reassembly_slots_;
  std::vector<std::uint32_t> reassembly_free_;

  // Coalescing: flat (dst, dscp, flow)-keyed index over persistent slots;
  // staging buffers are recycled through the batch buffer pool.
  FlatIndex<Key128> staging_index_;
  std::vector<Staging> staging_;
  CdrBufferPool batch_pool_;
  net::FlowMap<BatchPolicy> flow_batching_;
  std::vector<std::uint32_t> flush_scratch_;  // flush_all ordering, reused
  // One-entry MRU cache over staging_index_ (staging slots are persistent,
  // so a cached index never dangles).
  net::NodeId last_dst_ = net::kInvalidNode;
  net::Dscp last_dscp_ = 0;
  net::FlowId last_flow_ = net::kNoFlow;
  std::uint32_t last_slot_ = kNoSlot;

  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t batches_sent_ = 0;
  std::uint64_t batched_messages_ = 0;
  std::uint64_t batches_delivered_ = 0;
  std::uint64_t obs_bound_ = 0;  // uid of the recorder obs_track_ belongs to
  std::uint16_t obs_track_ = 0;
};

}  // namespace aqm::orb
