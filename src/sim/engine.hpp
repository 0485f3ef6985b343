// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events fire in (time, insertion-sequence)
// order, so two events scheduled for the same instant run in the order they
// were scheduled. All simulated subsystems (CPU schedulers, links, queues,
// RSVP agents, ORB transports, QuO contracts) are driven by this engine.
//
// The hot path is allocation-free in steady state:
//  * Handlers are stored in an InlineHandler — a small-buffer-optimized
//    callable with 48 bytes of inline storage, so capture-light lambdas
//    (the overwhelming majority of simulation events) never touch the heap.
//  * Handlers live in a slab of recycled slots addressed by index; the
//    event queue holds 24-byte POD entries, so queue maintenance moves
//    plain words instead of type-erased callables.
//  * Cancellation is a generation/tombstone scheme: EventId encodes
//    (slot, generation), cancel() marks the slot and destroys the handler
//    eagerly, and pop discards tombstones with a flag test — no hashing
//    anywhere on the schedule/fire/cancel paths.
//
// The queue is a calendar ("ladder") queue rather than a binary heap:
// events are appended unsorted to a far list, periodically distributed into
// time buckets ("a rung"), and each bucket is sorted by (time, seq) only
// when the clock reaches it. Every event is touched a constant number of
// times (append, distribute, one small sort, pop), so schedule→fire is
// amortized O(1) versus the heap's O(log n) pointer-chasing sifts — while
// firing order stays bit-identical to a (time, seq) priority queue.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "obs/trace.hpp"

namespace aqm::obs {
class TelemetryHub;
}

namespace aqm::sim {

/// Small-buffer-optimized move-only callable for simulation event handlers.
/// Callables up to kInlineSize bytes (that are nothrow-move-constructible)
/// are stored inline; larger ones fall back to a single heap allocation.
class InlineHandler {
 public:
  static constexpr std::size_t kInlineSize = 48;

  InlineHandler() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineHandler> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineHandler(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    construct<F>(std::forward<F>(f));
  }

  /// Replaces the stored callable, constructing the new one in place (no
  /// intermediate InlineHandler moves). Accepts another InlineHandler too.
  template <typename F>
  void assign(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineHandler>) {
      *this = std::forward<F>(f);
    } else {
      reset();
      construct<F>(std::forward<F>(f));
    }
  }

  InlineHandler(InlineHandler&& other) noexcept { steal(other); }
  InlineHandler& operator=(InlineHandler&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  InlineHandler(const InlineHandler&) = delete;
  InlineHandler& operator=(const InlineHandler&) = delete;
  ~InlineHandler() { reset(); }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty InlineHandler");
    ops_->invoke(buf_);
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  // relocate/destroy are null for trivially-relocatable/-destructible
  // callables: moves become a fixed-size memcpy and destruction a no-op,
  // so the common capture-of-refs-and-ints lambda costs no indirect calls
  // outside the actual invocation.
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* src, void* dst) noexcept;  // move-construct into dst, destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename F, typename D = std::decay_t<F>>
  void construct(F&& f) {
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* src, void* dst) noexcept {
              D* s = std::launder(reinterpret_cast<D*>(src));
              ::new (dst) D(std::move(*s));
              s->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* p) noexcept { std::launder(reinterpret_cast<D*>(p))->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
      nullptr,  // pointer payload: relocation is the default memcpy
      [](void* p) noexcept { delete *std::launder(reinterpret_cast<D**>(p)); },
  };

  void steal(InlineHandler& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(other.buf_, buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineSize);
      }
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) std::byte buf_[kInlineSize];
};

/// Identifies a scheduled event so it can be cancelled before it fires.
/// Encodes (slot, generation); stale ids — already fired or already
/// cancelled — are recognised and rejected by Engine::cancel().
struct EventId {
  std::uint64_t seq = 0;
  [[nodiscard]] bool valid() const { return seq != 0; }
};

class Engine {
 public:
  using Handler = InlineHandler;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Attaches (or detaches, with nullptr) a trace recorder. The engine does
  /// not own it; the caller keeps it alive for the run. Subsystems reach
  /// their recorder through the engine so a trial needs exactly one wiring
  /// point.
  void set_tracer(obs::TraceRecorder* tracer) {
    tracer_ = tracer;
    engine_track_ = tracer != nullptr ? tracer->track("engine") : 0;
  }
  [[nodiscard]] obs::TraceRecorder* tracer() const { return tracer_; }
  /// The attached recorder iff it wants `cat`, else nullptr. This is THE
  /// instrumentation guard: one pointer test when tracing is off.
  [[nodiscard]] obs::TraceRecorder* tracer_for(obs::TraceCategory cat) const {
    return tracer_ != nullptr && tracer_->wants(cat) ? tracer_ : nullptr;
  }

  /// Attaches (or detaches, with nullptr) the streaming telemetry hub,
  /// exactly like the tracer: the engine does not own it, subsystems reach
  /// it through the engine, and every observation point costs one pointer
  /// test when telemetry is detached.
  void set_telemetry(obs::TelemetryHub* hub) { telemetry_ = hub; }
  [[nodiscard]] obs::TelemetryHub* telemetry() const { return telemetry_; }

  /// Schedules a handler at an absolute time (must be >= now()). The
  /// callable is constructed directly in its slab slot (no intermediate
  /// handler moves).
  template <typename F>
  EventId at(TimePoint t, F&& fn) {
    assert(t >= now_ && "cannot schedule events in the past");
    const std::uint32_t slot = alloc_slot();
    Slot& s = slots_[slot];
    s.fn.assign(std::forward<F>(fn));
    assert(s.fn && "event handler must be callable");
    q_push(QEntry{t.ns(), next_order_++, slot});
    ++live_;
    return EventId{(static_cast<std::uint64_t>(s.gen) << 32) | (slot + 1)};
  }

  /// Schedules a handler after a relative delay (must be >= 0). A delay
  /// that would carry the target past TimePoint::max() saturates to the
  /// end of time instead of wrapping negative (a wrapped target would trip
  /// the cannot-schedule-in-the-past assert in debug builds and corrupt
  /// calendar routing in release builds).
  template <typename F>
  EventId after(Duration d, F&& fn) {
    assert(d >= Duration::zero() && "after() takes a non-negative delay");
    const std::int64_t headroom = TimePoint::max().ns() - now_.ns();
    const TimePoint t = d.ns() > headroom ? TimePoint::max() : now_ + d;
    return at(t, std::forward<F>(fn));
  }

  /// Cancels a pending event. Cancelling an already-fired, already-cancelled
  /// or invalid id is a no-op returning false. Returns true if the event was
  /// pending and is now cancelled. The handler is destroyed eagerly; the
  /// queue entry is tombstoned and discarded when it reaches the front.
  bool cancel(EventId id) {
    if (!id.valid()) return false;
    const auto slot = static_cast<std::uint32_t>(id.seq & 0xffffffffu) - 1;
    const auto gen = static_cast<std::uint32_t>(id.seq >> 32);
    if (slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    if (s.gen != gen || !s.fn) return false;
    // Tombstone: an empty handler in an occupied slot. The heap entry is
    // discarded with a flag test when it reaches the front.
    s.fn.reset();
    --live_;
    return true;
  }

  /// Runs the earliest pending event. Returns false if none remain.
  bool step() {
    for (;;) {
      if (near_.empty() && !refill()) {
        tidy_slab();
        return false;
      }
      const QEntry top = near_.back();
      near_.pop_back();
      if (!slots_[top.slot].fn) {  // tombstoned by cancel()
        free_slot(top.slot);
        continue;
      }
      assert(top.time_ns >= now_.ns());
      now_ = TimePoint{top.time_ns};
      ++executed_;
      --live_;
      if (obs::TraceRecorder* tr = tracer_for(obs::TraceCategory::Engine)) {
        tr->instant(obs::TraceCategory::Engine, "dispatch", engine_track_, now_, 0,
                    {{"pending", static_cast<double>(live_)}});
      }
      // Move the handler out before invoking: the handler may schedule new
      // events, growing the slab and invalidating references into it. This
      // also lets the slot be recycled by the handler itself.
      Handler fn = std::move(slots_[top.slot].fn);
      free_slot(top.slot);
#if defined(__GNUC__) || defined(__clang__)
      // The next event's slot is a data-dependent load; start it early.
      if (!near_.empty()) __builtin_prefetch(&slots_[near_.back().slot]);
#endif
      fn();
      return true;
    }
  }

  /// Runs until no events remain.
  void run() {
    while (step()) {
    }
  }

  /// Runs all events with time <= t, then advances the clock to t.
  void run_until(TimePoint t);

  /// Pre-sizes the handler slab and calendar storage for roughly `n_slots`
  /// concurrently pending events. Capacity-only: scheduling behaviour and
  /// firing order are unchanged; the ramp-up of a large scenario (or the
  /// first iterations of a benchmark) just stops paying vector growth.
  void reserve(std::size_t n_slots);

  /// Number of pending (non-cancelled) events.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Total events executed so far (for tests / sanity reporting).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  // One cache line: the handler plus bookkeeping. A slot referenced from
  // the queue is live iff fn is non-empty (empty means tombstoned).
  struct Slot {
    Handler fn;
    std::uint32_t gen = 1;
    std::uint32_t next_free = 0;
  };
  // POD queue entry: ordered by (time, insertion order) for determinism.
  struct QEntry {
    std::int64_t time_ns;
    std::uint64_t order;
    std::uint32_t slot;
  };
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;
  // Target events per calendar bucket: big enough to amortize refill,
  // small enough that the bucket sort stays in std::sort's branch-cheap
  // insertion regime (measured best on the hold-model benchmark).
  static constexpr std::size_t kBucketTarget = 8;
  static constexpr std::size_t kMaxBuckets = 1u << 14;

  /// Descending (time, order): near_ is kept in this order so that
  /// pop_back() always yields the earliest pending entry.
  static bool later(const QEntry& a, const QEntry& b) {
    if (a.time_ns != b.time_ns) return a.time_ns > b.time_ns;
    return a.order > b.order;
  }

  std::uint32_t alloc_slot() {
    if (free_head_ != kNoFreeSlot) {
      const std::uint32_t s = free_head_;
      free_head_ = slots_[s].next_free;
      return s;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void free_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.fn.reset();
    ++s.gen;  // invalidate any outstanding EventId for this slot
    s.next_free = free_head_;
    free_head_ = slot;
    slab_scrambled_ = true;
  }

  // Relinks the free list in slot order once the engine fully drains.
  // Events pop in time order, so after a drain the free list is a random
  // walk over the slab; the next batch of schedules would then write
  // handlers to scattered cache lines. Cold: runs at most once per drain.
  void tidy_slab();

  // Calendar-queue routing. Pending entries are partitioned into three
  // structures whose time ranges are disjoint and ascending:
  //   near_    [-inf, near_end_)          sorted, drained by pop_back
  //   rung     [near_end_, rung_end_)     buckets of width 2^shift_
  //   far_     [rung_end_, +inf)          unsorted append
  // so an entry is routed with two compares and at most one shift — no
  // O(log n) sift. Entries inside one bucket are only sorted when the
  // clock reaches that bucket (refill), keeping every event O(1) amortized.
  void q_push(const QEntry& e) {
    if (e.time_ns < near_end_) {
      near_insert(e);
    } else if (nb_ != 0 && e.time_ns < rung_end_) {
      const auto idx = static_cast<std::size_t>(
          static_cast<std::uint64_t>(e.time_ns - rung_start_) >> shift_);
      assert(idx >= cur_ && "bucket already drained");
      buckets_[idx].push_back(e);
    } else {
      far_.push_back(e);
      if (e.time_ns < far_min_) far_min_ = e.time_ns;
      if (e.time_ns > far_max_) far_max_ = e.time_ns;
    }
  }

  /// Sorted insert into the (small, L1-resident) drain vector.
  void near_insert(const QEntry& e) {
    near_.insert(std::lower_bound(near_.begin(), near_.end(), e, later), e);
  }

  // Advances to the next non-empty bucket, sorts it into near_ (or rebuilds
  // the rung from far_). Returns false when no events remain. Cold-ish:
  // runs once per ~kBucketTarget events.
  bool refill();
  void build_rung();
  /// rung_start_ + offset, saturated at the largest representable time.
  [[nodiscard]] std::int64_t rung_offset(std::uint64_t offset) const;

  // Time of the next non-cancelled event (discarding cancelled heads).
  bool peek_next_time(TimePoint& t);

  TimePoint now_ = TimePoint::zero();
  obs::TraceRecorder* tracer_ = nullptr;
  obs::TelemetryHub* telemetry_ = nullptr;
  std::uint16_t engine_track_ = 0;
  std::uint64_t next_order_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFreeSlot;
  bool slab_scrambled_ = false;

  // --- calendar queue state ---
  std::vector<QEntry> near_;  // descending (time, order); back() is earliest
  std::int64_t near_end_ = std::numeric_limits<std::int64_t>::min();
  std::vector<std::vector<QEntry>> buckets_;  // storage reused across rungs
  std::size_t nb_ = 0;   // buckets in the active rung (0 = no rung)
  std::size_t cur_ = 0;  // next bucket to drain
  unsigned shift_ = 0;   // bucket width is 1 << shift_ nanoseconds
  std::int64_t rung_start_ = 0;
  std::int64_t rung_end_ = 0;
  std::vector<QEntry> far_;  // unsorted; min/max tracked for rung building
  std::int64_t far_min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t far_max_ = std::numeric_limits<std::int64_t>::min();
};

/// Repeatedly invokes a callback with a fixed period until stopped.
/// The first tick fires one period after start() (or at a given phase).
class PeriodicTimer {
 public:
  PeriodicTimer(Engine& engine, Duration period, std::function<void()> on_tick);
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start();
  /// Starts with the first tick at now() + initial_delay.
  void start_after(Duration initial_delay);
  void stop();
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] Duration period() const { return period_; }
  void set_period(Duration period) { period_ = period; }

 private:
  void arm(Duration delay);

  Engine& engine_;
  Duration period_;
  std::function<void()> on_tick_;
  EventId pending_{};
  bool running_ = false;
};

}  // namespace aqm::sim
