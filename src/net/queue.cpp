#include "net/queue.hpp"

#include <bit>
#include <cassert>

namespace aqm::net {

// --- DropTailQueue -----------------------------------------------------------

DropTailQueue::DropTailQueue(std::size_t capacity_packets) : capacity_(capacity_packets) {
  assert(capacity_ > 0);
}

std::optional<Packet> DropTailQueue::enqueue(Packet p, TimePoint /*now*/) {
  if (q_.size() >= capacity_) {
    count_drop(p);
    return p;
  }
  count_enqueue(p);
  bytes_ += p.size_bytes;
  q_.push_back(std::move(p));
  return std::nullopt;
}

std::optional<Packet> DropTailQueue::dequeue() {
  if (q_.empty()) return std::nullopt;
  Packet p = q_.pop_front();
  bytes_ -= p.size_bytes;
  count_dequeue();
  return p;
}

// --- DiffServQueue -----------------------------------------------------------

DiffServQueue::DiffServQueue(std::size_t class_capacity) {
  capacities_.fill(class_capacity);
  assert(class_capacity > 0);
  bind_packet_pool(own_packet_pool());
}

DiffServQueue::DiffServQueue(const std::array<std::size_t, kPhbClassCount>& capacities)
    : capacities_(capacities) {
  bind_packet_pool(own_packet_pool());
}

void DiffServQueue::bind_packet_pool(PacketChunkPool& pool) {
  for (PacketFifo& q : classes_) q.bind(pool);
}

std::optional<Packet> DiffServQueue::enqueue(Packet p, TimePoint /*now*/) {
  const auto cls = static_cast<std::size_t>(classify(p.dscp));
  if (classes_[cls].size() >= capacities_[cls]) {
    count_drop(p);
    return p;
  }
  count_enqueue(p);
  bytes_ += p.size_bytes;
  ++packets_;
  classes_[cls].push_back(std::move(p));
  occupied_classes_ |= 1u << cls;
  return std::nullopt;
}

std::optional<Packet> DiffServQueue::dequeue() {
  if (occupied_classes_ == 0) return std::nullopt;
  // Lowest set bit == highest-priority occupied class: identical pick to
  // the class-order scan, without visiting the empty classes above it.
  const auto cls = static_cast<std::size_t>(std::countr_zero(occupied_classes_));
  PacketFifo& q = classes_[cls];
  Packet p = q.pop_front();
  if (q.empty()) occupied_classes_ &= ~(1u << cls);
  bytes_ -= p.size_bytes;
  --packets_;
  count_dequeue();
  return p;
}

// --- IntServQueue ------------------------------------------------------------

IntServQueue::IntServQueue(Config config) : config_(config) {
  assert(config_.best_effort_capacity > 0);
  if (config_.parent_rate_bps > 0.0) {
    parent_.emplace(config_.parent_rate_bps, kParentBucketBytes);
  }
}

bool IntServQueue::policer_consume(TokenBucket& child, std::uint32_t bytes,
                                   TimePoint now) {
  if (!parent_) return child.consume(bytes, now);
  return hierarchical_consume(*parent_, child, bytes, now);
}

void IntServQueue::trace_demote(const Packet& p, TimePoint now) {
  if (obs::TraceRecorder* tr = tracer()) {
    tr->instant(obs::TraceCategory::Net, "intserv.demote", trace_track(), now,
                p.trace, {{"flow", static_cast<double>(p.flow)},
                          {"bytes", static_cast<double>(p.size_bytes)}});
  }
}

// --- indexed flow table: ready-flow heap -------------------------------------

void IntServQueue::ready_push(FlowId id, std::uint32_t slot) {
  ready_.push_back(ReadyFlow{id, slot});
  ready_sift_up(ready_.size() - 1);
}

void IntServQueue::ready_erase(std::uint32_t slot) {
  const std::size_t pos = ready_pos_[slot];
  const ReadyFlow last = ready_.back();
  ready_.pop_back();
  if (pos == ready_.size()) return;
  ready_set(pos, last);
  ready_sift_up(pos);
  ready_sift_down(ready_pos_[last.slot]);
}

void IntServQueue::ready_sift_up(std::size_t pos) {
  const ReadyFlow f = ready_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (ready_[parent].id < f.id) break;
    ready_set(pos, ready_[parent]);
    pos = parent;
  }
  ready_set(pos, f);
}

void IntServQueue::ready_sift_down(std::size_t pos) {
  const ReadyFlow f = ready_[pos];
  const std::size_t n = ready_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && ready_[child + 1].id < ready_[child].id) ++child;
    if (f.id < ready_[child].id) break;
    ready_set(pos, ready_[child]);
    pos = child;
  }
  ready_set(pos, f);
}

// --- indexed flow table: pool + per-flow FIFO helpers ------------------------

std::uint32_t IntServQueue::pool_alloc(Packet&& p) {
  if (pool_free_ != kNil) {
    const std::uint32_t node = pool_free_;
    pool_free_ = pool_[node].next;
    pool_[node].pkt = std::move(p);
    pool_[node].next = kNil;
    return node;
  }
  const auto node = static_cast<std::uint32_t>(pool_.size());
  pool_.push_back(PacketNode{std::move(p), kNil});
  return node;
}

Packet IntServQueue::pool_release(std::uint32_t node) {
  Packet p = std::move(pool_[node].pkt);
  pool_[node].pkt = Packet{};  // free any external payload buffer now
  pool_[node].next = pool_free_;
  pool_free_ = node;
  return p;
}

void IntServQueue::flow_push(std::uint32_t slot, FlowId id, Packet&& p) {
  const std::uint32_t node = pool_alloc(std::move(p));
  FlowFifo& fifo = flow_fifo_[slot];
  if (fifo.tail == kNil) {
    fifo.head = fifo.tail = node;
    ready_push(id, slot);
  } else {
    pool_[fifo.tail].next = node;
    fifo.tail = node;
  }
  ++fifo.len;
}

Packet IntServQueue::flow_pop(std::uint32_t slot) {
  FlowFifo& fifo = flow_fifo_[slot];
  const std::uint32_t node = fifo.head;
  fifo.head = pool_[node].next;
  if (fifo.head == kNil) {
    fifo.tail = kNil;
    ready_erase(slot);
  }
  --fifo.len;
  return pool_release(node);
}

// --- reservation plane -------------------------------------------------------

void IntServQueue::install_reservation(FlowId flow, double rate_bps,
                                       std::uint32_t bucket_bytes, TimePoint now) {
  assert(flow != kNoFlow);
  if (const std::uint32_t* slot = slot_of_.find(flow)) {
    // Modify: swap in the new bucket, keep the queued packets.
    flow_bucket_[*slot] = TokenBucket{rate_bps, bucket_bytes, now};
    return;
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    flow_bucket_[slot] = TokenBucket{rate_bps, bucket_bytes, now};
    flow_fifo_[slot] = FlowFifo{};
  } else {
    slot = static_cast<std::uint32_t>(flow_bucket_.size());
    flow_bucket_.emplace_back(rate_bps, bucket_bytes, now);
    flow_fifo_.emplace_back();
    ready_pos_.push_back(0);
  }
  slot_of_[flow] = slot;
}

bool IntServQueue::update_reservation(FlowId flow, double rate_bps,
                                      std::uint32_t bucket_bytes, TimePoint now) {
  assert(flow != kNoFlow);
  const std::uint32_t* slot = slot_of_.find(flow);
  if (slot == nullptr) return false;
  flow_bucket_[*slot].reconfigure(rate_bps, bucket_bytes, now);
  return true;
}

void IntServQueue::remove_reservation(FlowId flow) {
  const std::uint32_t* found = slot_of_.find(flow);
  if (found == nullptr) return;
  const std::uint32_t slot = *found;
  // Queued packets of the torn-down flow demote to best effort (clamped by
  // the best-effort capacity).
  while (flow_fifo_[slot].len > 0) {
    Packet p = flow_pop(slot);
    if (best_effort_.size() >= config_.best_effort_capacity) {
      bytes_ -= p.size_bytes;
      --packets_;
      discard(p);
      continue;
    }
    best_effort_.push_back(std::move(p));
  }
  free_slots_.push_back(slot);
  slot_of_.erase(flow);
}

double IntServQueue::flow_rate_bps(FlowId flow) const {
  const std::uint32_t* slot = slot_of_.find(flow);
  return slot == nullptr ? 0.0 : flow_bucket_[*slot].rate_bps();
}

double IntServQueue::reserved_rate_bps() const {
  double sum = 0.0;
  slot_of_.for_each_ordered(
      [&](FlowId, std::uint32_t slot) { sum += flow_bucket_[slot].rate_bps(); });
  return sum;
}

// --- data plane --------------------------------------------------------------

std::optional<Packet> IntServQueue::enqueue(Packet p, TimePoint now) {
  if (classify(p.dscp) == PhbClass::NetworkControl) {
    if (control_.size() >= kControlCapacity) {
      count_drop(p);
      return p;
    }
    count_enqueue(p);
    bytes_ += p.size_bytes;
    ++packets_;
    control_.push_back(std::move(p));
    return std::nullopt;
  }
  if (const std::uint32_t* found = p.flow != kNoFlow ? slot_of_.find(p.flow) : nullptr) {
    const std::uint32_t slot = *found;
    // Policing: pay for the packet now; conforming packets get the
    // guaranteed queue, excess falls through to best effort below.
    // (Capacity is checked first so a full queue does not burn tokens.)
    if (flow_fifo_[slot].len < kFlowCapacity &&
        policer_consume(flow_bucket_[slot], p.size_bytes, now)) {
      count_enqueue(p);
      bytes_ += p.size_bytes;
      ++packets_;
      const FlowId id = p.flow;
      flow_push(slot, id, std::move(p));
      return std::nullopt;
    }
    // Non-conforming: demoted to best effort below.
    trace_demote(p, now);
  }
  if (best_effort_.size() >= config_.best_effort_capacity) {
    count_drop(p);
    return p;
  }
  count_enqueue(p);
  bytes_ += p.size_bytes;
  ++packets_;
  best_effort_.push_back(std::move(p));
  return std::nullopt;
}

std::optional<Packet> IntServQueue::dequeue() {
  // 1. Control plane first.
  if (!control_.empty()) {
    Packet p = control_.pop_front();
    bytes_ -= p.size_bytes;
    --packets_;
    count_dequeue();
    return p;
  }
  // 2. Reserved-flow packets, lowest ready FlowId first, found at the top
  // of the ready heap instead of by walking every reserved flow. They
  // pre-paid their tokens at enqueue, so the top flow is always servable.
  if (!ready_.empty()) {
    Packet p = flow_pop(ready_.front().slot);
    bytes_ -= p.size_bytes;
    --packets_;
    count_dequeue();
    return p;
  }
  // 3. Best effort.
  if (!best_effort_.empty()) {
    Packet p = best_effort_.pop_front();
    bytes_ -= p.size_bytes;
    --packets_;
    count_dequeue();
    return p;
  }
  return std::nullopt;
}

}  // namespace aqm::net
