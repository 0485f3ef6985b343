#include "net/packet_payload.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace aqm::net {
namespace {

struct Small {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};
static_assert(sizeof(Small) <= PacketPayload::kInlineSize);

struct Big {
  std::array<std::uint8_t, 128> bytes{};
};
static_assert(sizeof(Big) > PacketPayload::kInlineSize);

/// Instance-counting payload, to verify destruction across copy/move/reset.
struct Counted {
  static inline int live = 0;
  int value = 0;
  explicit Counted(int v) : value(v) { ++live; }
  Counted(const Counted& o) : value(o.value) { ++live; }
  Counted(Counted&& o) noexcept : value(o.value) { ++live; }
  ~Counted() { --live; }
};

TEST(PacketPayload, DefaultIsEmpty) {
  PacketPayload p;
  EXPECT_FALSE(p.has_value());
  EXPECT_EQ(p.get<Small>(), nullptr);
}

TEST(PacketPayload, StoresAndRetrievesInlineType) {
  PacketPayload p = Small{3, 4};
  ASSERT_TRUE(p.has_value());
  const Small* s = p.get<Small>();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->a, 3u);
  EXPECT_EQ(s->b, 4u);
}

TEST(PacketPayload, GetWithWrongTypeReturnsNull) {
  PacketPayload p = Small{1, 2};
  EXPECT_EQ(p.get<int>(), nullptr);
  EXPECT_EQ(p.get<Big>(), nullptr);
  EXPECT_NE(p.get<Small>(), nullptr);
}

TEST(PacketPayload, TakeMovesOutAndEmpties) {
  PacketPayload p = std::string(64, 'x');
  const std::string s = p.take<std::string>();
  EXPECT_EQ(s, std::string(64, 'x'));
  EXPECT_FALSE(p.has_value());
}

TEST(PacketPayload, CopyIsIndependent) {
  PacketPayload a = std::vector<int>{1, 2, 3};
  PacketPayload b = a;
  ASSERT_NE(b.get<std::vector<int>>(), nullptr);
  b.get<std::vector<int>>()->push_back(4);
  EXPECT_EQ(a.get<std::vector<int>>()->size(), 3u);
  EXPECT_EQ(b.get<std::vector<int>>()->size(), 4u);
}

TEST(PacketPayload, MoveTransfersOwnership) {
  PacketPayload a = Small{7, 8};
  PacketPayload b = std::move(a);
  EXPECT_FALSE(a.has_value());  // NOLINT(bugprone-use-after-move): asserting moved-from state
  ASSERT_NE(b.get<Small>(), nullptr);
  EXPECT_EQ(b.get<Small>()->a, 7u);
}

TEST(PacketPayload, MoveAssignDestroysPrevious) {
  Counted::live = 0;
  {
    PacketPayload a = Counted{1};
    PacketPayload b = Counted{2};
    EXPECT_EQ(Counted::live, 2);
    a = std::move(b);
    EXPECT_EQ(Counted::live, 1);
    ASSERT_NE(a.get<Counted>(), nullptr);
    EXPECT_EQ(a.get<Counted>()->value, 2);
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(PacketPayload, ResetDestroysValue) {
  Counted::live = 0;
  PacketPayload p = Counted{5};
  EXPECT_EQ(Counted::live, 1);
  p.reset();
  EXPECT_EQ(Counted::live, 0);
  EXPECT_FALSE(p.has_value());
}

TEST(PacketPayload, ReassignmentReplacesValue) {
  PacketPayload p = Small{1, 1};
  p = PacketPayload{std::string("hello")};
  EXPECT_EQ(p.get<Small>(), nullptr);
  ASSERT_NE(p.get<std::string>(), nullptr);
  EXPECT_EQ(*p.get<std::string>(), "hello");
}

}  // namespace
}  // namespace aqm::net
