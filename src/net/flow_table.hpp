// Paged per-flow state storage for million-flow worlds (DESIGN.md §10).
//
// FlowMap<T> replaces the ordered std::map<FlowId, T> tables that used to
// back the network layer's per-flow state. It is keyed directly by id: a
// page holds the values of the 64 ids [64k, 64k + 64) plus a one-word
// occupancy mask, and a FlatIndex directory maps the page key k = id >> 6
// to its page. Flow ids come clustered (1..N, or a few small groups), so a
// dense table costs one directory cell per 64 flows and the directory stays
// cache-resident: a lookup is one probe of a small flat array plus one mask
// test, and an insert into a present page allocates nothing. Ids 64 or
// more apart cost a page each.
//
// Stability guarantee: a value never moves. Pages are allocated one by
// one and freed only when their last id is erased (or by clear()), so a
// reference or pointer to an entry stays valid until that entry itself is
// erased, across any number of inserts and erases of other ids.
//
// Determinism rule: the directory's probe order is unspecified, so FlowMap
// never exposes it. Any consumer that iterates (metrics export, admission
// re-sums, service scans) must go through sorted_ids()/for_each_ordered(),
// which sort the page keys (1/64 of the entries) and walk each page's mask
// bits upward — the ascending-FlowId order the old std::map gave for free.
// That keeps every emitted byte `--jobs`-invariant.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_index.hpp"
#include "net/packet.hpp"

namespace aqm::net {

template <typename T>
class FlowMap {
 public:
  /// Returns the entry for `id`, default-constructing it on first use.
  /// The reference stays valid until `id` is erased.
  T& operator[](FlowId id) {
    Page& page = page_for(id >> kPageShift);
    const std::uint64_t bit = bit_of(id);
    if ((page.occupied & bit) == 0) {
      page.occupied |= bit;
      ++size_;
    }
    return page.values[id & kLowBits];
  }

  [[nodiscard]] T* find(FlowId id) { return lookup(id); }
  [[nodiscard]] const T* find(FlowId id) const { return lookup(id); }
  [[nodiscard]] bool contains(FlowId id) const { return find(id) != nullptr; }

  /// Releases the entry. The stored value is reset immediately, so owned
  /// resources are freed now; a page whose last entry goes is freed too.
  bool erase(FlowId id) {
    const std::uint32_t pos = dir_.find(id >> kPageShift);
    if (pos == kNoSlot) return false;
    Page& page = *pages_[pos];
    const std::uint64_t bit = bit_of(id);
    if ((page.occupied & bit) == 0) return false;
    page.occupied &= ~bit;
    page.values[id & kLowBits] = T{};
    --size_;
    if (page.occupied == 0) drop_page(pos);
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    dir_.clear();
    pages_.clear();
    size_ = 0;
  }

  /// Sorted snapshot of the live FlowIds (ascending) — the deterministic
  /// iteration order every emitter must use.
  [[nodiscard]] std::vector<FlowId> sorted_ids() const {
    std::vector<FlowId> ids;
    ids.reserve(size_);
    for_each_ordered([&ids](FlowId id, const T&) { ids.push_back(id); });
    return ids;
  }

  /// Calls fn(id, value) for every entry in ascending FlowId order.
  template <typename Fn>
  void for_each_ordered(Fn&& fn) const {
    std::vector<const Page*> order;
    order.reserve(pages_.size());
    for (const auto& page : pages_) order.push_back(page.get());
    std::sort(order.begin(), order.end(),
              [](const Page* a, const Page* b) { return a->key < b->key; });
    for (const Page* page : order) {
      for (std::uint64_t m = page->occupied; m != 0; m &= m - 1) {
        const auto i = static_cast<std::size_t>(std::countr_zero(m));
        fn((page->key << kPageShift) | i, page->values[i]);
      }
    }
  }

 private:
  static constexpr int kPageShift = 6;
  static constexpr std::size_t kPageIds = std::size_t{1} << kPageShift;
  static constexpr FlowId kLowBits = kPageIds - 1;

  struct Page {
    std::uint64_t key = 0;       // id >> kPageShift of every id on the page
    std::uint64_t occupied = 0;  // bit i set iff id (key << 6) | i is live
    std::array<T, kPageIds> values{};
  };

  [[nodiscard]] static std::uint64_t bit_of(FlowId id) {
    return std::uint64_t{1} << (id & kLowBits);
  }

  [[nodiscard]] T* lookup(FlowId id) const {
    const std::uint32_t pos = dir_.find(id >> kPageShift);
    if (pos == kNoSlot) return nullptr;
    Page& page = *pages_[pos];
    return (page.occupied & bit_of(id)) != 0 ? &page.values[id & kLowBits] : nullptr;
  }

  Page& page_for(std::uint64_t key) {
    std::uint32_t pos = dir_.find(key);
    if (pos == kNoSlot) {
      auto page = std::make_unique<Page>();
      page->key = key;
      pos = static_cast<std::uint32_t>(pages_.size());
      pages_.push_back(std::move(page));
      dir_.insert(key, pos);
    }
    return *pages_[pos];
  }

  /// Frees the empty page at `pos`; the last page takes its position (the
  /// page object itself stays where it is, so no value moves).
  void drop_page(std::uint32_t pos) {
    dir_.erase(pages_[pos]->key);
    if (pos + 1 != pages_.size()) {
      pages_[pos] = std::move(pages_.back());
      dir_.erase(pages_[pos]->key);
      dir_.insert(pages_[pos]->key, pos);
    }
    pages_.pop_back();
  }

  /// Page key -> position in pages_.
  FlatIndex<std::uint64_t> dir_;
  std::vector<std::unique_ptr<Page>> pages_;
  std::size_t size_ = 0;
};

}  // namespace aqm::net
