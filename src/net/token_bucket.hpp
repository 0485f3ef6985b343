// Token bucket used for IntServ guaranteed-service flows: a packet of a
// flow reserved at `rate_bps` with burst `depth_bytes` conforms when the
// bucket holds at least the packet's size in tokens. IntServQueue polices
// with it at enqueue; nothing ever waits for tokens.
#pragma once

#include <cstdint>

#include "common/time.hpp"

namespace aqm::net {

class TokenBucket {
 public:
  TokenBucket(double rate_bps, std::uint32_t depth_bytes, TimePoint start = TimePoint::zero());

  [[nodiscard]] double rate_bps() const { return rate_bps_; }
  [[nodiscard]] std::uint32_t depth_bytes() const { return depth_bytes_; }

  /// Live re-stamp: changes rate/depth in place without resetting the fill
  /// level. Tokens accrued so far are settled at the OLD rate up to `now`,
  /// then clamped to the new depth — so a rate change takes effect exactly
  /// at `now`, an over-full bucket loses its excess burst, and re-applying
  /// the current parameters is a no-op (idempotent).
  void reconfigure(double rate_bps, std::uint32_t depth_bytes, TimePoint now);

  /// Tokens (bytes) available at `now`.
  [[nodiscard]] double available(TimePoint now) const;

  /// True if a packet of `bytes` conforms at `now`.
  [[nodiscard]] bool conforms(std::uint32_t bytes, TimePoint now) const;

  /// Consumes tokens for a packet; returns false (and consumes nothing) if
  /// the packet does not conform.
  bool consume(std::uint32_t bytes, TimePoint now);

 private:
  void refill(TimePoint now);

  double rate_bps_;
  std::uint32_t depth_bytes_;
  double tokens_;       // bytes
  TimePoint last_refill_;
};

// --- hierarchical (two-level) policing --------------------------------------
//
// High-fan-in egress queues police per-flow children under one shared
// per-class parent: a packet conforms iff BOTH its flow's child bucket and
// the class parent hold enough tokens, and a conforming packet debits both.
// The check touches exactly two buckets however many sibling flows exist,
// so aggregate policing cost per packet is independent of flow count.
// A non-conforming packet debits neither level (the check uses conforms(),
// which is side-effect free), so a burst rejected by the parent cannot
// starve the child of tokens it never spent.

/// Consumes from child and parent iff the packet conforms at both levels.
[[nodiscard]] bool hierarchical_consume(TokenBucket& parent, TokenBucket& child,
                                        std::uint32_t bytes, TimePoint now);

}  // namespace aqm::net
