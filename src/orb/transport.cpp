#include "orb/transport.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <tuple>

namespace aqm::orb {
namespace {

// Batch framing (DESIGN.md §11): 8-byte header, then `count` entries, each
// 4-aligned as [u32 length LE][length bytes]. "GBAT" is disjoint from the
// "GIOP" magic, so the receive side distinguishes batches from plain
// messages without out-of-band state; application payloads beginning with
// "GBAT" are reserved.
constexpr std::uint8_t kBatchMagic[4] = {'G', 'B', 'A', 'T'};
constexpr std::uint8_t kBatchVersion = 1;
constexpr std::size_t kBatchHeaderSize = 8;
constexpr std::size_t kBatchCountOffset = 6;  // u16 LE, patched at flush
constexpr std::uint32_t kBatchMaxCount = 0xFFFF;

constexpr std::uint32_t kPacketOverhead = 40;  // IP + TCP-ish framing per fragment
/// How long a partly reassembled message waits for its missing fragments
/// before it counts as lost.
constexpr Duration kReassemblyTimeout = seconds(5);

}  // namespace

// Fragments ride in every data packet; keep them inside the payload's
// inline buffer so forwarding never allocates.
static_assert(sizeof(GiopFragment) <= net::PacketPayload::kInlineSize);

GiopTransport::GiopTransport(net::Network& net, net::NodeId node, TransportConfig config)
    : net_(net), node_(node), config_(config) {
  assert(config_.mtu > kPacketOverhead);
  net_.set_receiver(node_, [this](net::Packet&& p) { on_packet(std::move(p)); });
}

void GiopTransport::set_flow_batching(net::FlowId flow, BatchPolicy policy) {
  flow_batching_[flow] = policy;
}

void GiopTransport::clear_flow_batching(net::FlowId flow) {
  // Ship anything the departing policy left staged before the override
  // goes away (the key may never see another send).
  for (std::size_t i = 0; i < staging_.size(); ++i) {
    if (staging_[i].active && staging_[i].flow == flow) {
      flush_slot(static_cast<std::uint32_t>(i));
    }
  }
  flow_batching_.erase(flow);
}

const BatchPolicy* GiopTransport::flow_batching(net::FlowId flow) const {
  // The table probe only runs when some flow actually batches — the common
  // case (no policy anywhere) stays branch-predictable.
  return flow_batching_.empty() ? nullptr : flow_batching_.find(flow);
}

void GiopTransport::send_message(net::NodeId dst, MessageBuffer msg, net::Dscp dscp,
                                 net::FlowId flow, std::uint64_t trace) {
  assert(msg != nullptr && !msg->empty());
  ++sent_;
  const BatchPolicy* policy = flow_batching(flow);
  if (policy == nullptr) {
    transmit(dst, std::move(msg), dscp, flow, trace);
    return;
  }
  const BatchPolicy& pol = *policy;

  // Oversized messages bypass staging; flush the key's pending batch first
  // so per-key delivery order matches submission order.
  if (msg->size() >= pol.max_bytes) {
    flush(dst, dscp, flow);
    transmit(dst, std::move(msg), dscp, flow, trace);
    return;
  }

  const std::uint32_t slot = staging_slot(dst, dscp, flow);
  Staging& s = staging_[slot];
  if (!s.active) {
    s.buf = batch_pool_.acquire();
    s.buf->assign(kBatchMagic, kBatchMagic + 4);
    s.buf->push_back(kBatchVersion);
    s.buf->push_back(0);  // flags
    s.buf->push_back(0);  // count lo, patched at flush
    s.buf->push_back(0);  // count hi
    s.count = 0;
    s.trace = trace;
    s.active = true;
    s.flush_event =
        net_.engine().after(pol.flush_delay, [this, slot] { deadline_flush(slot); });
  }

  // Append [pad to 4][u32 length LE][bytes] in one growth step: resize
  // zero-fills the alignment pad, then the length and payload land via
  // direct stores — no per-byte capacity checks on the hot path.
  auto& b = *s.buf;
  const std::size_t aligned = (b.size() + 3u) & ~std::size_t{3};
  const auto len = static_cast<std::uint32_t>(msg->size());
  b.resize(aligned + 4 + len);
  std::uint8_t* out = b.data() + aligned;
  out[0] = static_cast<std::uint8_t>(len);
  out[1] = static_cast<std::uint8_t>(len >> 8);
  out[2] = static_cast<std::uint8_t>(len >> 16);
  out[3] = static_cast<std::uint8_t>(len >> 24);
  std::memcpy(out + 4, msg->data(), len);
  ++s.count;
  ++batched_messages_;

  if (b.size() >= pol.max_bytes || s.count >= pol.max_messages ||
      s.count == kBatchMaxCount) {
    flush_slot(slot);
  }
}

std::uint32_t GiopTransport::staging_slot(net::NodeId dst, net::Dscp dscp,
                                          net::FlowId flow) {
  // One-entry MRU cache: pipelined traffic hammers a single key, and slots
  // are never erased, so a cached index can never go stale.
  if (dst == last_dst_ && dscp == last_dscp_ && flow == last_flow_) {
    return last_slot_;
  }
  const Key128 key = staging_key(dst, dscp, flow);
  std::uint32_t slot = staging_index_.find(key);
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(staging_.size());
    Staging s;
    s.dst = dst;
    s.dscp = dscp;
    s.flow = flow;
    staging_.push_back(std::move(s));
    staging_index_.insert(key, slot);
  }
  last_dst_ = dst;
  last_dscp_ = dscp;
  last_flow_ = flow;
  last_slot_ = slot;
  return slot;
}

void GiopTransport::flush(net::NodeId dst, net::Dscp dscp, net::FlowId flow) {
  const std::uint32_t slot = staging_index_.find(staging_key(dst, dscp, flow));
  if (slot != kNoSlot) flush_slot(slot);
}

void GiopTransport::flush_all() {
  // Hash-table order never leaks (DESIGN.md §10): emit in sorted key order.
  std::vector<std::uint32_t>& active = flush_scratch_;
  active.clear();
  for (std::size_t i = 0; i < staging_.size(); ++i) {
    if (staging_[i].active) active.push_back(static_cast<std::uint32_t>(i));
  }
  std::sort(active.begin(), active.end(), [this](std::uint32_t a, std::uint32_t b) {
    const Staging& sa = staging_[a];
    const Staging& sb = staging_[b];
    return std::tie(sa.dst, sa.dscp, sa.flow) < std::tie(sb.dst, sb.dscp, sb.flow);
  });
  for (const std::uint32_t slot : active) flush_slot(slot);
}

void GiopTransport::deadline_flush(std::uint32_t slot) {
  Staging& s = staging_[slot];
  if (!s.active) return;
  s.flush_event = {};  // this event already fired
  if (obs::TraceRecorder* tr = tracer()) {
    tr->instant(obs::TraceCategory::Orb, "batch.deadline", obs_track_,
                net_.engine().now(), s.trace,
                {{"count", static_cast<double>(s.count)}});
  }
  flush_slot(slot);
}

void GiopTransport::flush_slot(std::uint32_t slot) {
  Staging& s = staging_[slot];
  if (!s.active) return;
  net_.engine().cancel(s.flush_event);
  s.flush_event = {};
  (*s.buf)[kBatchCountOffset] = static_cast<std::uint8_t>(s.count);
  (*s.buf)[kBatchCountOffset + 1] = static_cast<std::uint8_t>(s.count >> 8);
  batch_pool_.note_message_size(s.buf->size());
  MessageBuffer batch = CdrBufferPool::freeze(std::move(s.buf));
  const net::NodeId dst = s.dst;
  const net::Dscp dscp = s.dscp;
  const net::FlowId flow = s.flow;
  const std::uint64_t trace = s.trace;
  s.active = false;
  s.count = 0;
  s.trace = 0;
  ++batches_sent_;
  transmit(dst, std::move(batch), dscp, flow, trace);
}

void GiopTransport::transmit(net::NodeId dst, MessageBuffer msg, net::Dscp dscp,
                             net::FlowId flow, std::uint64_t trace) {
  const std::uint32_t payload_mtu = config_.mtu - kPacketOverhead;
  const auto total = static_cast<std::uint32_t>(msg->size());
  const std::uint32_t count = (total + payload_mtu - 1) / payload_mtu;
  const std::uint64_t message_id = next_message_id_++;

  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t offset = i * payload_mtu;
    const std::uint32_t length = std::min(payload_mtu, total - offset);
    net::Packet p;
    p.dst = dst;
    p.size_bytes = length + kPacketOverhead;
    p.dscp = dscp;
    p.ecn = config_.ecn_capable ? net::Ecn::Capable : net::Ecn::NotCapable;
    p.flow = flow;
    p.seq = flow_seq_[flow]++;
    p.trace = trace;
    p.payload = GiopFragment{message_id, i, count, offset, length, msg};
    net_.send(node_, std::move(p));
  }
}

obs::TraceRecorder* GiopTransport::tracer() {
  obs::TraceRecorder* tr = net_.engine().tracer_for(obs::TraceCategory::Orb);
  if (tr != nullptr && obs_bound_ != tr->uid()) {
    obs_track_ = tr->track("giop:" + net_.node_name(node_));
    obs_bound_ = tr->uid();
  }
  return tr;
}

std::uint64_t GiopTransport::ce_marks(net::FlowId flow) const {
  const std::uint64_t* marks = ce_marks_.find(flow);
  return marks == nullptr ? 0 : *marks;
}

std::uint32_t GiopTransport::acquire_reassembly_slot() {
  if (!reassembly_free_.empty()) {
    const std::uint32_t slot = reassembly_free_.back();
    reassembly_free_.pop_back();
    return slot;
  }
  reassembly_slots_.emplace_back();
  return static_cast<std::uint32_t>(reassembly_slots_.size() - 1);
}

void GiopTransport::release_reassembly_slot(std::uint32_t slot) {
  Reassembly& r = reassembly_slots_[slot];
  reassembly_index_.erase(reassembly_key(r.src, r.message_id));
  // Drop the message reference now (the sender's pooled buffer recycles),
  // but keep the `seen` bitmap's capacity for the next message in this slot
  // — the zero-alloc steady-state receive path depends on it.
  r.data.reset();
  r.expected = 0;
  r.arrived = 0;
  r.trace = 0;
  r.expiry = {};
  reassembly_free_.push_back(slot);
}

void GiopTransport::on_packet(net::Packet&& p) {
  if (!p.payload.has_value()) return;  // not a GIOP fragment (ignore)
  const auto* frag = p.payload.get<GiopFragment>();
  if (frag == nullptr) return;
  if (p.ecn == net::Ecn::CongestionExperienced) {
    ++ce_marks_[p.flow];
    if (obs::TraceRecorder* tr = tracer()) {
      tr->instant(obs::TraceCategory::Orb, "ce.mark", obs_track_, net_.engine().now(),
                  p.trace, {{"flow", static_cast<double>(p.flow)}});
    }
  }

  if (frag->count == 1) {
    deliver(p.src, frag->data, p.trace);
    return;
  }

  std::uint32_t slot = reassembly_index_.find(reassembly_key(p.src, frag->message_id));
  if (slot == kNoSlot) {
    slot = acquire_reassembly_slot();
    Reassembly& r = reassembly_slots_[slot];
    r.expected = frag->count;
    r.arrived = 0;
    r.seen.assign((frag->count + 63) / 64, 0);  // reuses the slot's capacity
    r.data = frag->data;
    r.trace = p.trace;
    r.src = p.src;
    r.message_id = frag->message_id;
    r.expiry = net_.engine().after(
        kReassemblyTimeout,
        [this, src = p.src, id = frag->message_id] { expire(src, id); });
    reassembly_index_.insert(reassembly_key(p.src, frag->message_id), slot);
  }
  Reassembly& r = reassembly_slots_[slot];
  if (frag->index >= r.expected) return;  // garbage
  std::uint64_t& word = r.seen[frag->index >> 6];
  const std::uint64_t bit = 1ull << (frag->index & 63);
  if ((word & bit) != 0) return;  // duplicate
  word |= bit;
  ++r.arrived;
  if (r.arrived < r.expected) return;

  net_.engine().cancel(r.expiry);
  MessageBuffer msg = std::move(r.data);
  const std::uint64_t trace = r.trace;
  release_reassembly_slot(slot);
  deliver(p.src, std::move(msg), trace);
}

void GiopTransport::deliver(net::NodeId src, MessageBuffer msg, std::uint64_t trace) {
  const std::vector<std::uint8_t>& b = *msg;
  if (b.size() >= kBatchHeaderSize && b[0] == kBatchMagic[0] && b[1] == kBatchMagic[1] &&
      b[2] == kBatchMagic[2] && b[3] == kBatchMagic[3]) {
    ++batches_delivered_;
    const std::uint32_t count = b[kBatchCountOffset] |
                                (static_cast<std::uint32_t>(b[kBatchCountOffset + 1]) << 8);
    // One owner reference for the whole batch; the view is rebound per
    // entry, so unpacking N messages costs zero refcount round-trips.
    MessageView view(msg, nullptr, 0, trace);
    std::size_t off = kBatchHeaderSize;
    for (std::uint32_t i = 0; i < count; ++i) {
      off = (off + 3) & ~std::size_t{3};
      if (off + 4 > b.size()) break;  // truncated batch: drop the tail
      const std::uint32_t len = b[off] | (static_cast<std::uint32_t>(b[off + 1]) << 8) |
                                (static_cast<std::uint32_t>(b[off + 2]) << 16) |
                                (static_cast<std::uint32_t>(b[off + 3]) << 24);
      off += 4;
      if (off + len > b.size()) break;
      ++delivered_;
      view.rebind(b.data() + off, len);
      if (handler_) handler_(src, view);
      off += len;
    }
    return;
  }
  ++delivered_;
  if (handler_) {
    const MessageView view(std::move(msg), trace);
    handler_(src, view);
  }
}

void GiopTransport::expire(net::NodeId src, std::uint64_t message_id) {
  const std::uint32_t slot = reassembly_index_.find(reassembly_key(src, message_id));
  if (slot == kNoSlot) return;
  const std::uint64_t trace = reassembly_slots_[slot].trace;
  const std::uint32_t missing =
      reassembly_slots_[slot].expected - reassembly_slots_[slot].arrived;
  release_reassembly_slot(slot);
  ++expired_;
  if (obs::TraceRecorder* tr = tracer()) {
    tr->instant(obs::TraceCategory::Orb, "reassembly.expire", obs_track_,
                net_.engine().now(), trace,
                {{"missing", static_cast<double>(missing)}});
  }
}

}  // namespace aqm::orb
