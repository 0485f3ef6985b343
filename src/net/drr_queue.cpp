#include "net/drr_queue.hpp"

#include <algorithm>
#include <cassert>

namespace aqm::net {

DrrQueue::DrrQueue(DrrConfig config) : config_(config) {
  assert(config_.class_capacity > 0);
  assert(config_.quantum_bytes > 0);
  assert(std::all_of(config_.weights.begin(), config_.weights.end(),
                     [](auto w) { return w > 0; }));
  bind_packet_pool(own_packet_pool());
}

void DrrQueue::bind_packet_pool(PacketChunkPool& pool) {
  for (ClassState& c : classes_) c.q.bind(pool);
}

std::optional<Packet> DrrQueue::enqueue(Packet p, TimePoint /*now*/) {
  const auto cls = static_cast<std::size_t>(classify(p.dscp));
  ClassState& state = classes_[cls];
  if (state.q.size() >= config_.class_capacity) {
    count_drop(p);
    return p;
  }
  count_enqueue(p);
  bytes_ += p.size_bytes;
  state.q.push_back(std::move(p));
  if (!state.in_active_list) {
    state.in_active_list = true;
    state.deficit = 0;  // credit granted when its turn comes
    active_push(cls);
  }
  return std::nullopt;
}

std::optional<Packet> DrrQueue::dequeue(TimePoint /*now*/) {
  // Standard DRR adapted to a pull-one-packet link: the front class gets
  // exactly one quantum grant per visit; it keeps the front spot while its
  // deficit covers head packets (served across successive dequeue calls),
  // then rotates with its residual deficit. The loop terminates: every
  // iteration either serves a packet or rotates an already-granted class,
  // and each class is rotated at most once between grants.
  // Termination: each rotation grants a fresh quantum, so every active
  // class's deficit grows monotonically until its head packet is covered
  // (ceil(max_packet / (quantum * weight)) rounds at worst).
  std::size_t rotations = 0;
  const std::size_t rotation_cap = 100'000;  // sanity bound
  while (active_count_ > 0 && rotations < rotation_cap) {
    const std::size_t cls = active_[active_head_];
    ClassState& state = classes_[cls];
    assert(!state.q.empty());
    if (!state.granted_this_round) {
      state.deficit += static_cast<std::int64_t>(config_.quantum_bytes) *
                       config_.weights[cls];
      state.granted_this_round = true;
    }
    if (state.deficit >= static_cast<std::int64_t>(state.q.front().size_bytes)) {
      Packet p = state.q.pop_front();
      state.deficit -= p.size_bytes;
      state.bytes_sent += p.size_bytes;
      bytes_ -= p.size_bytes;
      count_dequeue();
      if (state.q.empty()) {
        state.in_active_list = false;
        state.granted_this_round = false;
        state.deficit = 0;  // an idle class must not hoard credit
        active_pop();
      }
      return p;
    }
    // Deficit exhausted for this round: rotate with the residual credit.
    state.granted_this_round = false;
    active_push(active_pop());
    ++rotations;
  }
  return std::nullopt;
}

std::optional<Duration> DrrQueue::next_ready_delay(TimePoint /*now*/) const {
  return std::nullopt;  // backlogged packets are always eventually eligible
}

std::size_t DrrQueue::packets() const {
  std::size_t n = 0;
  for (const auto& c : classes_) n += c.q.size();
  return n;
}

}  // namespace aqm::net
