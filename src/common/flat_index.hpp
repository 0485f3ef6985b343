// Open-addressing key -> slot index shared by every per-flow and
// per-message table (DESIGN.md §10).
//
// FlatIndex only maps a key to a slot number; the storage the number
// points into belongs to the consumer: FlowMap's 64-id pages (the index is
// FlowMap's page directory, keyed by id >> 6), TelemetryHub's flow vector,
// the GIOP transport's reassembly and staging arenas, the ORB's pending
// calls, the CPU's jobs, the trace recorder's interned strings and
// Network's links. It is a linear-probe table
// over one flat array of (key, slot) cells:
//
//  * the key is mixed multiplicatively (Fibonacci hashing) and the home
//    cell taken from the high bits, so strided ids (every 8th flow,
//    multiples of the capacity) spread over the table instead of
//    clustering. 64-bit ids are mixed per aligned group of four, which keeps
//    consecutive ids in one cache line (see home());
//  * deletion is backward-shift: the cells after the erased one slide back
//    over the gap, so there are no tombstones and probe chains never decay
//    under insert/erase churn;
//  * the array doubles at 3/4 load and never shrinks, so churn at a stable
//    size touches no allocator.
//
// Determinism rule: probe order depends on the capacity history, so the
// index exposes no iteration order. for_each_unordered() walks the cells
// as they lie (tests inspect the layout through it); anything emitted
// must be sorted by key first.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace aqm {

/// FlatIndex::find's answer for an absent key; never a valid mapped slot.
inline constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

/// 128-bit composite key (the transport's (node, message) and
/// (destination+DSCP, flow) pairs).
struct Key128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const Key128&, const Key128&) = default;
};

template <typename Key>
class FlatIndex {
 public:
  /// Returns the mapped slot, or kNoSlot when the key is absent.
  [[nodiscard]] std::uint32_t find(const Key& key) const {
    if (cells_.empty()) return kNoSlot;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      const Cell& c = cells_[i];
      if (c.slot == kNoSlot) return kNoSlot;
      if (c.key == key) return c.slot;
    }
  }

  [[nodiscard]] bool contains(const Key& key) const { return find(key) != kNoSlot; }

  /// Maps key -> slot unless the key is present. Returns the slot the key
  /// maps to afterwards and whether this call inserted it.
  std::pair<std::uint32_t, bool> try_insert(const Key& key, std::uint32_t slot) {
    assert(slot != kNoSlot);
    if (!cells_.empty()) {
      for (std::size_t i = home(key);; i = (i + 1) & mask()) {
        Cell& c = cells_[i];
        if (c.slot == kNoSlot) {
          if ((size_ + 1) * 4 > cells_.size() * 3) break;  // grow, then place
          c = Cell{key, slot};
          ++size_;
          return {slot, true};
        }
        if (c.key == key) return {c.slot, false};
      }
    }
    grow(cells_.empty() ? kMinCapacity : cells_.size() * 2);
    place(Cell{key, slot});
    ++size_;
    return {slot, true};
  }

  /// Maps a key that must be absent.
  void insert(const Key& key, std::uint32_t slot) {
    [[maybe_unused]] const bool inserted = try_insert(key, slot).second;
    assert(inserted && "FlatIndex::insert on a present key");
  }

  /// Removes the key; returns false when absent.
  bool erase(const Key& key) {
    if (cells_.empty()) return false;
    std::size_t gap = home(key);
    for (;; gap = (gap + 1) & mask()) {
      if (cells_[gap].slot == kNoSlot) return false;
      if (cells_[gap].key == key) break;
    }
    // Backward shift: pull every later cell of the run whose home does not
    // lie cyclically in (gap, j] into the gap, until an empty cell ends it.
    for (std::size_t j = (gap + 1) & mask();; j = (j + 1) & mask()) {
      Cell& c = cells_[j];
      if (c.slot == kNoSlot) break;
      if (((j - home(c.key)) & mask()) >= ((j - gap) & mask())) {
        cells_[gap] = c;
        gap = j;
      }
    }
    cells_[gap].slot = kNoSlot;
    --size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return cells_.size(); }

  /// Drops every mapping; keeps the cell array.
  void clear() {
    for (Cell& c : cells_) c.slot = kNoSlot;
    size_ = 0;
  }

  /// Calls fn(key, slot) for every mapping in unspecified (capacity-
  /// dependent) order. Only for building sorted views.
  template <typename Fn>
  void for_each_unordered(Fn&& fn) const {
    for (const Cell& c : cells_) {
      if (c.slot != kNoSlot) fn(c.key, c.slot);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  struct Cell {
    Key key{};
    std::uint32_t slot = kNoSlot;  // kNoSlot marks an empty cell
  };

  static constexpr std::uint64_t kPhi = 0x9E3779B97F4A7C15ull;  // 2^64 / golden ratio

  [[nodiscard]] std::size_t mask() const { return cells_.size() - 1; }
  /// 64-bit keys: the four ids of one aligned group (id / 4) share a
  /// multiplicatively mixed 4-cell block and sit side by side in it, so a
  /// run of consecutive flow ids costs one cache line per four lookups
  /// instead of one each, while strided ids still spread block by block.
  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    const auto block = static_cast<std::size_t>(((key >> 2) * kPhi) >> shift_);
    return (block & ~std::size_t{3}) | static_cast<std::size_t>(key & 3);
  }
  /// 128-bit keys are mixed whole: their low words are not dense ids.
  [[nodiscard]] std::size_t home(const Key128& key) const {
    return static_cast<std::size_t>(((key.hi * 0xC2B2AE3D27D4EB4Full + key.lo) * kPhi) >>
                                    shift_);
  }

  /// Puts a cell whose key is absent into its first free probe position.
  void place(const Cell& cell) {
    std::size_t i = home(cell.key);
    while (cells_[i].slot != kNoSlot) i = (i + 1) & mask();
    cells_[i] = cell;
  }

  void grow(std::size_t new_cap) {
    assert(std::has_single_bit(new_cap));
    std::vector<Cell> old(new_cap);
    old.swap(cells_);
    shift_ = 64 - std::countr_zero(new_cap);
    for (const Cell& c : old) {
      if (c.slot != kNoSlot) place(c);
    }
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(capacity): home() keeps the top bits of the mix
};

}  // namespace aqm
