// Flat per-flow state storage for million-flow worlds (DESIGN.md §10).
//
// FlowMap<T> replaces the ordered std::map<FlowId, T> tables that used to
// back the network layer's per-flow state. Lookup is a FlatIndex probe
// (FlowId -> dense slot); the T values live contiguously in a slot arena
// that is recycled through a free list, so steady-state insert/erase churn
// performs no heap allocation at all and the per-packet hot path costs one
// probe of a flat array instead of an O(log n) tree walk.
//
// Determinism rule: the index's probe order is unspecified, so FlowMap
// never exposes it. Any consumer that iterates (metrics export, admission
// re-sums, service scans) must go through sorted_ids()/for_each_ordered(),
// which materialize the ascending-FlowId order the old std::map gave for
// free. That keeps every emitted byte `--jobs`-invariant.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_index.hpp"
#include "net/packet.hpp"

namespace aqm::net {

template <typename T>
class FlowMap {
 public:
  /// Returns the entry for `id`, default-constructing it on first use.
  /// References are invalidated by subsequent inserts (slot arena growth).
  T& operator[](FlowId id) {
    const std::uint32_t fresh =
        free_.empty() ? static_cast<std::uint32_t>(slots_.size()) : free_.back();
    const auto [slot, inserted] = index_.try_insert(id, fresh);
    if (inserted) {
      if (free_.empty()) {
        slots_.emplace_back();
      } else {
        free_.pop_back();
        slots_[slot] = T{};
      }
    }
    return slots_[slot];
  }

  [[nodiscard]] T* find(FlowId id) {
    const std::uint32_t slot = index_.find(id);
    return slot == kNoSlot ? nullptr : &slots_[slot];
  }
  [[nodiscard]] const T* find(FlowId id) const {
    const std::uint32_t slot = index_.find(id);
    return slot == kNoSlot ? nullptr : &slots_[slot];
  }
  [[nodiscard]] bool contains(FlowId id) const { return index_.contains(id); }

  /// Releases the entry (its slot is recycled; the stored value is reset
  /// immediately so owned resources are freed now, not at reuse time).
  bool erase(FlowId id) {
    const std::uint32_t slot = index_.find(id);
    if (slot == kNoSlot) return false;
    slots_[slot] = T{};
    free_.push_back(slot);
    index_.erase(id);
    return true;
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] bool empty() const { return index_.empty(); }

  void clear() {
    index_.clear();
    slots_.clear();
    free_.clear();
  }

  /// Sorted snapshot of the live FlowIds (ascending) — the deterministic
  /// iteration order every emitter must use.
  [[nodiscard]] std::vector<FlowId> sorted_ids() const {
    std::vector<FlowId> ids;
    ids.reserve(index_.size());
    index_.for_each_unordered([&ids](FlowId id, std::uint32_t) { ids.push_back(id); });
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  /// Calls fn(id, value) for every entry in ascending FlowId order.
  template <typename Fn>
  void for_each_ordered(Fn&& fn) const {
    std::vector<std::pair<FlowId, std::uint32_t>> order;
    order.reserve(index_.size());
    index_.for_each_unordered(
        [&order](FlowId id, std::uint32_t slot) { order.emplace_back(id, slot); });
    std::sort(order.begin(), order.end());
    for (const auto& [id, slot] : order) fn(id, slots_[slot]);
  }

 private:
  FlatIndex<FlowId> index_;
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace aqm::net
