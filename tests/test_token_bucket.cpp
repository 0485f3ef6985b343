#include "net/token_bucket.hpp"

#include <gtest/gtest.h>

namespace aqm::net {
namespace {

TEST(TokenBucket, StartsFull) {
  TokenBucket tb(8000.0, 1000);  // 1000 B/s refill, 1000 B depth
  EXPECT_DOUBLE_EQ(tb.available(TimePoint::zero()), 1000.0);
  EXPECT_TRUE(tb.conforms(1000, TimePoint::zero()));
  EXPECT_FALSE(tb.conforms(1001, TimePoint::zero()));
}

TEST(TokenBucket, ConsumeReducesTokens) {
  TokenBucket tb(8000.0, 1000);
  EXPECT_TRUE(tb.consume(600, TimePoint::zero()));
  EXPECT_NEAR(tb.available(TimePoint::zero()), 400.0, 1e-9);
  EXPECT_FALSE(tb.consume(500, TimePoint::zero()));
  EXPECT_NEAR(tb.available(TimePoint::zero()), 400.0, 1e-9);  // unchanged on failure
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket tb(8000.0, 1000);  // 1000 bytes/sec
  ASSERT_TRUE(tb.consume(1000, TimePoint::zero()));
  const TimePoint half_second{500'000'000};
  EXPECT_NEAR(tb.available(half_second), 500.0, 1e-6);
}

TEST(TokenBucket, RefillCapsAtDepth) {
  TokenBucket tb(8000.0, 1000);
  ASSERT_TRUE(tb.consume(500, TimePoint::zero()));
  const TimePoint later{seconds(100).ns()};
  EXPECT_DOUBLE_EQ(tb.available(later), 1000.0);
}

TEST(TokenBucket, ReconfigurePreservesFillLevel) {
  TokenBucket tb(8000.0, 1000);  // 1000 B/s, 1000 B depth
  ASSERT_TRUE(tb.consume(600, TimePoint::zero()));
  // Re-stamp to double the rate: the 400 remaining tokens carry over
  // (no free burst from a rate change), and refill now runs at 2000 B/s.
  tb.reconfigure(16'000.0, 1000, TimePoint::zero());
  EXPECT_NEAR(tb.available(TimePoint::zero()), 400.0, 1e-9);
  const TimePoint quarter{250'000'000};
  EXPECT_NEAR(tb.available(quarter), 900.0, 1e-6);
}

TEST(TokenBucket, ReconfigureSettlesOldRateFirst) {
  TokenBucket tb(8000.0, 1000);
  ASSERT_TRUE(tb.consume(1000, TimePoint::zero()));
  // Half a second at the OLD 1000 B/s rate must be credited before the
  // new rate takes over — the re-stamp is not retroactive.
  const TimePoint half{500'000'000};
  tb.reconfigure(80'000.0, 2000, half);
  EXPECT_NEAR(tb.available(half), 500.0, 1e-6);
  const TimePoint later{600'000'000};  // +0.1 s at 10 KB/s
  EXPECT_NEAR(tb.available(later), 1500.0, 1e-6);
}

TEST(TokenBucket, ReconfigureClampsTokensToShrunkDepth) {
  TokenBucket tb(8000.0, 1000);
  tb.reconfigure(8000.0, 250, TimePoint::zero());
  EXPECT_DOUBLE_EQ(tb.available(TimePoint::zero()), 250.0);
  EXPECT_FALSE(tb.conforms(251, TimePoint::zero()));
}

TEST(TokenBucket, ReconfigureIsIdempotent) {
  TokenBucket tb(8000.0, 1000);
  ASSERT_TRUE(tb.consume(300, TimePoint::zero()));
  tb.reconfigure(8000.0, 1000, TimePoint::zero());
  tb.reconfigure(8000.0, 1000, TimePoint::zero());
  EXPECT_NEAR(tb.available(TimePoint::zero()), 700.0, 1e-9);
}

TEST(TokenBucket, SustainedRateMatchesConfigured) {
  // Offer a packet every millisecond (50x the token rate); the long-run
  // conforming rate must match the configured token rate.
  TokenBucket tb(80'000.0, 2000);  // 10 KB/s
  std::uint64_t sent_bytes = 0;
  const std::uint32_t pkt = 500;
  for (TimePoint now = TimePoint::zero(); now < TimePoint{seconds(10).ns()};
       now = now + milliseconds(1)) {
    if (tb.consume(pkt, now)) sent_bytes += pkt;
  }
  // 10 KB/s for 10 s = 100 KB (+ the initial 2 KB burst).
  EXPECT_NEAR(static_cast<double>(sent_bytes), 102'000.0, 1'000.0);
}

}  // namespace
}  // namespace aqm::net
