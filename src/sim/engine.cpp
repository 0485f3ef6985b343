#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace aqm::sim {

namespace {

/// Sort a bucket by Engine-style (time, order) descending. Buckets hold
/// ~kBucketTarget nearly-random entries; at that size insertion sort beats
/// std::sort's introsort dispatch by a wide margin (it is the single
/// hottest piece of refill). Oversized buckets (many events at one
/// timestamp land in one bucket) fall back to std::sort to avoid the
/// quadratic worst case. Keys are unique, so both produce the same order.
template <typename T, typename Less>
void small_sort(std::vector<T>& v, Less less) {
  const std::size_t n = v.size();
  if (n > 32) {
    std::sort(v.begin(), v.end(), less);
    return;
  }
  for (std::size_t i = 1; i < n; ++i) {
    T tmp = v[i];
    std::size_t j = i;
    for (; j > 0 && less(tmp, v[j - 1]); --j) v[j] = v[j - 1];
    v[j] = tmp;
  }
}

}  // namespace

void Engine::reserve(std::size_t n_slots) {
  slots_.reserve(n_slots);
  far_.reserve(n_slots);
  // A drained bucket is copied into near_, so near_ only ever holds one
  // bucket's worth of entries (plus same-rung inserts).
  near_.reserve(std::min<std::size_t>(n_slots, 64 * kBucketTarget));
  buckets_.reserve(std::clamp<std::size_t>(n_slots / kBucketTarget, 1, kMaxBuckets));
}

bool Engine::refill() {
  assert(near_.empty());
  for (;;) {
    while (cur_ < nb_) {
      std::vector<QEntry>& b = buckets_[cur_];
      ++cur_;
      if (b.empty()) continue;
      // Copy rather than swap: near_ and every bucket keep their own
      // storage, so each grows only at its own peak and near_ keeps what
      // reserve() gave it.
      near_.assign(b.begin(), b.end());
      b.clear();
      small_sort(near_, later);
      near_end_ = rung_offset(static_cast<std::uint64_t>(cur_) << shift_);
      return true;
    }
    nb_ = 0;
    if (far_.empty()) return false;
    build_rung();
  }
}

std::int64_t Engine::rung_offset(std::uint64_t offset) const {
  // A rung starting near TimePoint::max() can extend past it: saturate
  // rather than overflow the signed clock.
  constexpr std::int64_t kMaxTime = std::numeric_limits<std::int64_t>::max();
  return offset > static_cast<std::uint64_t>(kMaxTime - rung_start_)
             ? kMaxTime
             : rung_start_ + static_cast<std::int64_t>(offset);
}

void Engine::build_rung() {
  // All far_ times are >= near_end_ (and >= the previous rung_end_), so the
  // new rung's range cannot overlap anything already ordered.
  assert(far_min_ >= near_end_);
  rung_start_ = far_min_;
  const auto span = static_cast<std::uint64_t>(far_max_ - far_min_) + 1;
  const std::uint64_t target =
      std::clamp<std::uint64_t>(far_.size() / kBucketTarget, 1, kMaxBuckets);
  // Bucket width rounded up to a power of two so routing is a shift.
  const std::uint64_t width = (span + target - 1) / target;
  shift_ = width <= 1 ? 0 : static_cast<unsigned>(std::bit_width(width - 1));
  nb_ = static_cast<std::size_t>(((span - 1) >> shift_) + 1);
  cur_ = 0;
  if (buckets_.size() < nb_) buckets_.resize(nb_);
  rung_end_ = rung_offset(static_cast<std::uint64_t>(nb_) << shift_);
  for (const QEntry& e : far_) {
    buckets_[static_cast<std::uint64_t>(e.time_ns - rung_start_) >> shift_].push_back(e);
  }
  far_.clear();
  far_min_ = std::numeric_limits<std::int64_t>::max();
  far_max_ = std::numeric_limits<std::int64_t>::min();
}

void Engine::tidy_slab() {
  assert(live_ == 0);
  if (!slab_scrambled_) return;
  slab_scrambled_ = false;
  const std::size_t n = slots_.size();
  if (n == 0) {
    free_head_ = kNoFreeSlot;
    return;
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    slots_[i].next_free = static_cast<std::uint32_t>(i + 1);
  }
  slots_[n - 1].next_free = kNoFreeSlot;
  free_head_ = 0;
}

bool Engine::peek_next_time(TimePoint& t) {
  // Discard tombstoned heads so the reported time is a live event's.
  for (;;) {
    if (near_.empty() && !refill()) return false;
    const QEntry top = near_.back();
    if (!slots_[top.slot].fn) {
      near_.pop_back();
      free_slot(top.slot);
      continue;
    }
    t = TimePoint{top.time_ns};
    return true;
  }
}

void Engine::run_until(TimePoint t) {
  TimePoint next;
  while (peek_next_time(next) && next <= t) {
    step();
  }
  if (now_ < t) now_ = t;
}

PeriodicTimer::PeriodicTimer(Engine& engine, Duration period, std::function<void()> on_tick)
    : engine_(engine), period_(period), on_tick_(std::move(on_tick)) {
  assert(period_ > Duration::zero());
  assert(on_tick_);
}

void PeriodicTimer::start() { start_after(period_); }

void PeriodicTimer::start_after(Duration initial_delay) {
  stop();
  running_ = true;
  arm(initial_delay);
}

void PeriodicTimer::stop() {
  if (pending_.valid()) engine_.cancel(pending_);
  pending_ = EventId{};
  running_ = false;
}

void PeriodicTimer::arm(Duration delay) {
  pending_ = engine_.after(delay, [this] {
    pending_ = EventId{};
    if (!running_) return;
    on_tick_();
    // on_tick_ may have stopped the timer (or restarted it).
    if (running_ && !pending_.valid()) arm(period_);
  });
}

}  // namespace aqm::sim
