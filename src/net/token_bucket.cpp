#include "net/token_bucket.hpp"

#include <algorithm>
#include <cassert>

namespace aqm::net {

TokenBucket::TokenBucket(double rate_bps, std::uint32_t depth_bytes, TimePoint start)
    : rate_bps_(rate_bps),
      depth_bytes_(depth_bytes),
      tokens_(static_cast<double>(depth_bytes)),
      last_refill_(start) {
  assert(rate_bps > 0.0);
  assert(depth_bytes > 0);
}

void TokenBucket::reconfigure(double rate_bps, std::uint32_t depth_bytes, TimePoint now) {
  assert(rate_bps > 0.0);
  assert(depth_bytes > 0);
  refill(now);  // settle accrual at the old rate first
  rate_bps_ = rate_bps;
  depth_bytes_ = depth_bytes;
  tokens_ = std::min(tokens_, static_cast<double>(depth_bytes));
}

void TokenBucket::refill(TimePoint now) {
  if (now <= last_refill_) return;
  const double elapsed_s = (now - last_refill_).seconds();
  tokens_ = std::min(static_cast<double>(depth_bytes_), tokens_ + rate_bps_ / 8.0 * elapsed_s);
  last_refill_ = now;
}

double TokenBucket::available(TimePoint now) const {
  const double elapsed_s = now > last_refill_ ? (now - last_refill_).seconds() : 0.0;
  return std::min(static_cast<double>(depth_bytes_), tokens_ + rate_bps_ / 8.0 * elapsed_s);
}

bool TokenBucket::conforms(std::uint32_t bytes, TimePoint now) const {
  return available(now) >= static_cast<double>(bytes);
}

bool TokenBucket::consume(std::uint32_t bytes, TimePoint now) {
  refill(now);
  if (tokens_ < static_cast<double>(bytes)) return false;
  tokens_ -= static_cast<double>(bytes);
  return true;
}

bool hierarchical_consume(TokenBucket& parent, TokenBucket& child, std::uint32_t bytes,
                          TimePoint now) {
  if (!child.conforms(bytes, now) || !parent.conforms(bytes, now)) return false;
  const bool child_ok = child.consume(bytes, now);
  const bool parent_ok = parent.consume(bytes, now);
  assert(child_ok && parent_ok);
  (void)child_ok;
  (void)parent_ok;
  return true;
}

}  // namespace aqm::net
