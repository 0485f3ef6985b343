// FlatIndex (src/common/flat_index.hpp), the one key -> slot index behind
// FlowMap, IntServQueue, TelemetryHub, Network's link table and the GIOP
// transport's 128-bit tables.
//
// 1. Randomized insert/find/erase churn against a std::map reference for
//    both key widths, over key pools that mix random ids with the awkward
//    ones: 0, the maximum key, every 8th id and multiples of the capacity.
//    The churn grows the table through several doublings and shrinks it
//    again, so backward-shift erase runs at every load.
// 2. Erases whose probe chain wraps past the end of the table, built from
//    keys whose home is the last cell (the test reproduces the home
//    formula; the walk order proves the chain really wrapped).
// 3. Churn at a stable size never changes the capacity: the cell array is
//    the index's only allocation.
#include "common/flat_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace aqm {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

using RefKey = std::pair<std::uint64_t, std::uint64_t>;

Key128 to_key(const RefKey& k, Key128*) { return {k.first, k.second}; }
std::uint64_t to_key(const RefKey& k, std::uint64_t*) { return k.second; }

/// Key pool for one width: random ids plus the edge cases, with 128-bit
/// pools also varying the high word and covering a dense 40 x 40 grid.
std::vector<RefKey> key_pool(bool wide, Rng& rng) {
  std::vector<RefKey> pool;
  const auto hi = [&](std::uint64_t i) -> std::uint64_t {
    if (!wide) return 0;
    switch (i % 4) {
      case 0: return 0;
      case 1: return kMax;
      case 2: return i % 7;
      default: return rng.next_u64();
    }
  };
  pool.emplace_back(hi(0), 0);
  pool.emplace_back(hi(1), kMax);
  pool.emplace_back(hi(2), kMax - 1);
  for (std::uint64_t i = 0; i < 600; ++i) pool.emplace_back(hi(i), 8 * i + 1);  // every 8th
  for (std::uint64_t i = 1; i < 300; ++i) pool.emplace_back(hi(i), i * 1024);   // x capacity
  for (std::uint64_t i = 1; i < 300; ++i) pool.emplace_back(hi(i), i << 32);
  for (std::uint64_t i = 0; i < 600; ++i) pool.emplace_back(hi(i), rng.next_u64());
  if (wide) {
    for (std::uint64_t i = 0; i < 1600; ++i) pool.emplace_back(i % 40, i / 40);  // dense grid
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  return pool;
}

template <typename Key>
void churn_matches_reference(std::uint64_t seed, bool wide) {
  Rng rng(seed);
  const std::vector<RefKey> pool = key_pool(wide, rng);
  FlatIndex<Key> index;
  std::map<RefKey, std::uint32_t> ref;
  const auto key = [](const RefKey& k) { return to_key(k, static_cast<Key*>(nullptr)); };
  const auto check_all = [&](int op) {
    ASSERT_EQ(index.size(), ref.size()) << "op " << op;
    for (const RefKey& k : pool) {
      const auto it = ref.find(k);
      ASSERT_EQ(index.find(key(k)), it == ref.end() ? kNoSlot : it->second)
          << "op " << op << " key " << k.first << ":" << k.second;
    }
    std::size_t walked = 0;
    index.for_each_unordered([&](const Key&, std::uint32_t) { ++walked; });
    ASSERT_EQ(walked, ref.size()) << "op " << op;
  };

  // Three phases: insert-heavy growth, balanced churn, erase-heavy drain.
  const int phase_ops = 20'000;
  for (int op = 0; op < 3 * phase_ops; ++op) {
    const int insert_pct = op < phase_ops ? 75 : op < 2 * phase_ops ? 50 : 20;
    const RefKey& k = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    const int roll = static_cast<int>(rng.uniform_int(0, 99));
    if (roll < insert_pct) {
      const auto slot = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
      const auto [got, inserted] = index.try_insert(key(k), slot);
      const auto [it, ref_inserted] = ref.try_emplace(k, slot);
      ASSERT_EQ(inserted, ref_inserted) << "op " << op;
      ASSERT_EQ(got, it->second) << "op " << op;
    } else if (roll < insert_pct + (100 - insert_pct) * 2 / 3) {
      ASSERT_EQ(index.erase(key(k)), ref.erase(k) == 1) << "op " << op;
    } else {
      const auto it = ref.find(k);
      ASSERT_EQ(index.find(key(k)), it == ref.end() ? kNoSlot : it->second) << "op " << op;
    }
    if (op % 2'000 == 0) check_all(op);
  }
  check_all(3 * phase_ops);
  // Drain completely: every key erases exactly once, then nothing is left.
  for (const auto& [k, slot] : ref) EXPECT_TRUE(index.erase(key(k)));
  EXPECT_TRUE(index.empty());
  for (const RefKey& k : pool) EXPECT_EQ(index.find(key(k)), kNoSlot);
}

TEST(FlatIndex, RandomChurnMatchesReferenceMap) {
  for (std::uint64_t seed : {99u, 7u, 2024u}) churn_matches_reference<Key128>(seed, true);
}

TEST(FlatIndex, RandomChurn64MatchesReferenceMap) {
  for (std::uint64_t seed : {99u, 7u, 2024u}) {
    churn_matches_reference<std::uint64_t>(seed, false);
  }
}

TEST(FlatIndex, ZeroAndMaxAreRealKeys) {
  FlatIndex<std::uint64_t> index;
  EXPECT_EQ(index.find(0), kNoSlot);
  index.insert(0, 5);
  index.insert(kMax, 6);
  EXPECT_EQ(index.find(0), 5u);
  EXPECT_EQ(index.find(kMax), 6u);
  EXPECT_EQ(index.try_insert(0, 9), std::make_pair(std::uint32_t{5}, false));
  EXPECT_TRUE(index.erase(0));
  EXPECT_FALSE(index.erase(0));
  EXPECT_EQ(index.find(kMax), 6u);

  FlatIndex<Key128> wide;
  wide.insert({0, 0}, 1);
  wide.insert({kMax, kMax}, 2);
  wide.insert({0, kMax}, 3);
  wide.insert({kMax, 0}, 4);
  EXPECT_EQ(wide.find({0, 0}), 1u);
  EXPECT_EQ(wide.find({kMax, kMax}), 2u);
  EXPECT_EQ(wide.find({0, kMax}), 3u);
  EXPECT_EQ(wide.find({kMax, 0}), 4u);
  EXPECT_EQ(wide.size(), 4u);
}

// Home cell of a 64-bit key in a 16-cell table (see FlatIndex::home): the
// top 4 bits of the mixed group id key / 4 pick a 4-cell block, key % 4 the
// cell in it.
std::size_t home16(std::uint64_t key) {
  const auto block = static_cast<std::size_t>(((key >> 2) * 0x9E3779B97F4A7C15ull) >> 60);
  return (block & ~std::size_t{3}) | static_cast<std::size_t>(key & 3);
}

std::vector<std::uint64_t> keys_with_home16(std::size_t home, std::size_t n) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; keys.size() < n; ++k) {
    if (home16(k) == home) keys.push_back(k);
  }
  return keys;
}

std::vector<std::uint64_t> walk(const FlatIndex<std::uint64_t>& index) {
  std::vector<std::uint64_t> order;
  index.for_each_unordered([&](std::uint64_t k, std::uint32_t) { order.push_back(k); });
  return order;
}

TEST(FlatIndex, EraseShiftsBackAcrossTheTableEnd) {
  // Three keys homed at the last cell occupy cells 15, 0, 1; a key homed
  // at cell 0 lands behind them at cell 2.
  const std::vector<std::uint64_t> last = keys_with_home16(15, 3);
  const std::uint64_t first = keys_with_home16(0, 1)[0];
  FlatIndex<std::uint64_t> index;
  for (std::uint32_t i = 0; i < 3; ++i) index.insert(last[i], i);
  index.insert(first, 3);
  ASSERT_EQ(index.capacity(), 16u);
  // The walk goes cell 0 upward, so the wrapped chain shows up first.
  ASSERT_EQ(walk(index), (std::vector<std::uint64_t>{last[1], last[2], first, last[0]}));

  // Erasing the chain head at cell 15 pulls the wrapped entries back across
  // the end: last[1] to 15, last[2] to 0, and `first` (home 0) to 1.
  EXPECT_TRUE(index.erase(last[0]));
  EXPECT_EQ(walk(index), (std::vector<std::uint64_t>{last[2], first, last[1]}));
  EXPECT_EQ(index.find(last[0]), kNoSlot);
  EXPECT_EQ(index.find(last[1]), 1u);
  EXPECT_EQ(index.find(last[2]), 2u);
  EXPECT_EQ(index.find(first), 3u);

  // Erasing inside the wrapped part (cell 0) shifts only what follows it.
  EXPECT_TRUE(index.erase(last[2]));
  EXPECT_EQ(walk(index), (std::vector<std::uint64_t>{first, last[1]}));
  EXPECT_EQ(index.find(first), 3u);
  EXPECT_EQ(index.find(last[1]), 1u);
  EXPECT_TRUE(index.erase(last[1]));
  EXPECT_TRUE(index.erase(first));
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(walk(index).empty());
}

TEST(FlatIndex, ChurnAtStableSizeKeepsCapacity) {
  for (const std::uint64_t stride : {1u, 8u, 1024u}) {
    FlatIndex<std::uint64_t> index;
    std::vector<std::uint64_t> live;
    std::uint64_t next = 0;
    for (; live.size() < 3'000; next += stride) {
      index.insert(next, static_cast<std::uint32_t>(live.size()));
      live.push_back(next);
    }
    const std::size_t capacity = index.capacity();
    Rng rng(stride);
    for (int op = 0; op < 200'000; ++op) {
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      ASSERT_TRUE(index.erase(live[victim]));
      live[victim] = next;
      index.insert(next, static_cast<std::uint32_t>(victim));
      next += stride;
    }
    EXPECT_EQ(index.capacity(), capacity) << "stride " << stride;
    for (std::size_t i = 0; i < live.size(); ++i) {
      ASSERT_EQ(index.find(live[i]), i) << "stride " << stride;
    }
  }
}

TEST(FlatIndex, GrowsAtThreeQuarterLoad) {
  FlatIndex<std::uint64_t> index;
  for (std::uint32_t i = 0; i < 12; ++i) index.insert(i, i);
  EXPECT_EQ(index.capacity(), 16u);
  index.insert(12, 12);
  EXPECT_EQ(index.capacity(), 32u);
  for (std::uint32_t i = 0; i <= 12; ++i) EXPECT_EQ(index.find(i), i);
  index.clear();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.capacity(), 32u);
  EXPECT_EQ(index.find(3), kNoSlot);
}

}  // namespace
}  // namespace aqm
