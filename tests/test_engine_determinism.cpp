// Determinism and allocation guarantees of the calendar-queue engine.
//
// 1. Golden trace: a reference engine (binary heap ordered by (time, seq)
//    with lazy cancellation — the semantics the calendar queue replaced)
//    runs the same randomized schedule/fire/cancel workload as sim::Engine;
//    both execution traces must match event for event.
// 2. Steady-state scheduling is allocation-free: a hold-model loop with
//    capture-light handlers performs zero heap allocations once warmed up,
//    verified by counting global operator new.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <unordered_set>
#include <utility>
#include <vector>

// --- counting allocator ------------------------------------------------------

namespace {
std::uint64_t g_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_heap_allocs;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace aqm::sim {
namespace {

// --- reference engine --------------------------------------------------------

/// Textbook DES queue: std::push_heap/pop_heap over (time, seq) with an
/// unordered_set of lazily-cancelled sequence numbers. Kept here as the
/// behavioral oracle for the calendar queue.
class RefEngine {
 public:
  struct Id {
    std::uint64_t seq = 0;
  };

  [[nodiscard]] TimePoint now() const { return now_; }

  template <typename F>
  Id at(TimePoint t, F&& fn) {
    queue_.push_back(Event{t, next_seq_, std::function<void()>(std::forward<F>(fn))});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
    return Id{next_seq_++};
  }

  template <typename F>
  Id after(Duration d, F&& fn) {
    return at(now_ + d, std::forward<F>(fn));
  }

  bool cancel(Id id) {
    if (id.seq == 0 || id.seq >= next_seq_) return false;
    return cancelled_.insert(id.seq).second;
  }

  bool step() {
    while (!queue_.empty()) {
      std::pop_heap(queue_.begin(), queue_.end(), Later{});
      Event ev = std::move(queue_.back());
      queue_.pop_back();
      if (cancelled_.erase(ev.seq) != 0) continue;
      now_ = ev.time;
      ev.fn();
      return true;
    }
    return false;
  }

 private:
  struct Event {
    TimePoint time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  TimePoint now_ = TimePoint::zero();
  std::uint64_t next_seq_ = 1;
  std::vector<Event> queue_;
  std::unordered_set<std::uint64_t> cancelled_;
};

// --- golden-trace workload ---------------------------------------------------

/// Runs a self-sustaining schedule/cancel workload on any engine with the
/// at/after/cancel/step API. All decisions come from one LCG, so two
/// engines with identical firing order consume identical random streams
/// and produce identical traces; any ordering divergence derails the
/// streams and shows up as a trace mismatch.
template <typename EngineT>
class Workload {
 public:
  std::vector<std::pair<std::int64_t, int>> run(int budget) {
    budget_ = budget;
    for (int i = 0; i < 32; ++i) schedule_one();
    while (engine_.step()) {
    }
    return std::move(trace_);
  }

 private:
  using Id = decltype(std::declval<EngineT&>().after(Duration::zero(),
                                                     std::function<void()>{}));

  std::uint32_t next() {
    rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(rng_ >> 33);
  }

  /// Mixed magnitudes: same-instant ties, sub-bucket, rung-sized, and
  /// far-future deltas, so the calendar queue crosses every routing path.
  Duration delta() {
    switch (next() % 4) {
      case 0: return nanoseconds(0);
      case 1: return nanoseconds(next() % 64);
      case 2: return nanoseconds(next() % 4096);
      default: return nanoseconds(next() % 1'000'000);
    }
  }

  void schedule_one() {
    if (budget_ <= 0) return;
    --budget_;
    const int label = next_label_++;
    Id id = engine_.after(delta(), [this, label] { fired(label); });
    if (next() % 4 == 0) cancellable_.push_back(id);
  }

  void fired(int label) {
    trace_.emplace_back(engine_.now().ns(), label);
    const std::uint32_t children = next() % 4;  // avg 1.5 sustains the load
    for (std::uint32_t i = 0; i < children; ++i) schedule_one();
    if (!cancellable_.empty() && next() % 3 == 0) {
      // May hit an already-fired id — both engines must reject it without
      // disturbing anything.
      const std::size_t pick = next() % cancellable_.size();
      engine_.cancel(cancellable_[pick]);
      cancellable_.erase(cancellable_.begin() +
                         static_cast<std::ptrdiff_t>(pick));
    }
  }

  EngineT engine_;
  std::vector<std::pair<std::int64_t, int>> trace_;
  std::vector<Id> cancellable_;
  std::uint64_t rng_ = 0x2545F4914F6CDD1DULL;
  int next_label_ = 0;
  int budget_ = 0;
};

TEST(EngineDeterminism, TraceMatchesReferenceHeapEngine) {
  const auto actual = Workload<Engine>{}.run(20'000);
  const auto expected = Workload<RefEngine>{}.run(20'000);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "divergence at event " << i;
  }
  // The workload must have actually fired a nontrivial number of events.
  EXPECT_GT(actual.size(), 10'000u);
}

TEST(EngineDeterminism, TraceTimesAreMonotonic) {
  const auto trace = Workload<Engine>{}.run(5'000);
  EXPECT_TRUE(std::is_sorted(
      trace.begin(), trace.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

// --- zero-allocation steady state --------------------------------------------

/// Hold-model event: fires, draws a pseudo-random delay, reschedules
/// itself. 24-byte capture — comfortably inside InlineHandler's buffer.
struct HoldOp {
  Engine* e;
  std::uint64_t* rng;
  std::uint64_t* sink;

  void operator()() const {
    *rng = *rng * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto r = static_cast<std::uint32_t>(*rng >> 33);
    *sink += r & 1;
    e->after(nanoseconds(static_cast<std::int64_t>(r & 0x3fff) + 1),
             HoldOp{e, rng, sink});
  }
};

TEST(EngineAllocation, SteadyStateHoldLoopIsAllocationFree) {
  Engine e;
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
  std::uint64_t sink = 0;
  for (int i = 0; i < 256; ++i) HoldOp{&e, &rng, &sink}();
  // Warm up until every recycled vector (slab, near list, rung buckets)
  // has reached its steady-state capacity.
  for (int i = 0; i < 200'000; ++i) ASSERT_TRUE(e.step());

  const std::uint64_t before = g_heap_allocs;
  for (int i = 0; i < 50'000; ++i) ASSERT_TRUE(e.step());
  EXPECT_EQ(g_heap_allocs - before, 0u)
      << "schedule->fire loop allocated on the heap";
  EXPECT_GT(sink, 0u);
}

}  // namespace
}  // namespace aqm::sim
