// Causal tracing for the simulation: a pooled recorder of spans and
// instant events stamped with simulation time, exported as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Design constraints, in order:
//  * ~Free when detached. Every instrumentation point is guarded by a
//    single pointer test (Engine::tracer_for returns nullptr unless a
//    recorder is attached AND wants the category); the category mask is
//    fixed when the recorder is built.
//  * Allocation-free steady state when enabled. Events are 72-byte PODs
//    appended into recycled fixed-size chunks by an inline bump of the
//    active chunk's cursor; names are `const char*` (string literals or
//    strings interned once per distinct label).
//  * Deterministic. Trace ids come from a per-recorder counter, tracks
//    from first-registration order, so the same trial produces the same
//    trace bytes on every run.
//
// Causality model: an end-to-end request allocates one trace id. The ORB
// propagates it in a GIOP service context (next to the RT-CORBA priority
// context, exactly how the paper propagates priority end-to-end) and
// stamps it on every network packet the request fragments into. Each
// layer records its events with that id, so Perfetto groups the client
// send, per-hop enqueue/dequeue/drop, server dispatch and downstream QuO
// reaction into one async track.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_index.hpp"
#include "common/time.hpp"

namespace aqm::obs {

/// Bitmask categories; one bit per instrumented layer.
enum class TraceCategory : std::uint32_t {
  Engine = 1u << 0,  // sim::Engine event dispatch
  Net = 1u << 1,     // links, queues, RED, token buckets, RSVP
  Orb = 1u << 2,     // request send/dispatch/reply, marshal, transport
  Os = 1u << 3,      // CPU reserves
  Quo = 1u << 4,     // contract region transitions, syscond updates
  App = 1u << 5,     // driver/example-level annotations
};
inline constexpr std::uint32_t kAllCategories = 0xffffffffu;
/// Everything except the very chatty per-event engine dispatch lane (opt in
/// with kAllCategories).
inline constexpr std::uint32_t kDefaultCategories =
    kAllCategories & ~static_cast<std::uint32_t>(TraceCategory::Engine);

[[nodiscard]] const char* to_string(TraceCategory c);

enum class TracePhase : std::uint8_t {
  Complete,    // "X": span with explicit duration
  Instant,     // "i"
  AsyncBegin,  // "b": nestable async span, correlated by (category, id)
  AsyncEnd,    // "e"
  Counter,     // "C": sampled value, rendered as a track graph
};

/// Numeric key/value attached to an event. Keys are static or interned
/// strings; values are doubles (counters, queue depths, rates, ids).
struct TraceArg {
  const char* key;
  double value;
};

struct TraceEvent {
  const char* name = nullptr;  // static or interned; never owned here
  TracePhase phase = TracePhase::Instant;
  std::uint8_t argc = 0;
  std::uint16_t track = 0;  // lane index (Chrome "tid"), see TraceRecorder::track
  TraceCategory cat = TraceCategory::Engine;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;  // Complete only
  std::uint64_t id = 0;     // correlation id (0 = none)
  std::array<TraceArg, 2> args{};
};
static_assert(sizeof(void*) != 8 || sizeof(TraceEvent) == 72,
              "TraceEvent is a 72-byte POD on 64-bit targets; the flight ring is sized in it");

/// Records trace events into pooled chunk storage. Single-threaded, like
/// the engine it observes; one recorder per trial keeps shard-parallel
/// sweeps trivially race-free.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::uint32_t categories = kDefaultCategories);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Process-unique identity, never reused (unlike the recorder's
  /// address): callers that cache tracks or interned names per recorder
  /// key the cache on it.
  [[nodiscard]] std::uint64_t uid() const { return uid_; }

  // --- configuration --------------------------------------------------------

  /// Flight-recorder mode: bound storage to roughly `max_events` (rounded
  /// up to whole chunks, at least one). Once the ring is full each new
  /// chunk overwrites the oldest one wholesale — chunk-granular loss, with
  /// the evicted event count reported by overwritten(). 0 (the default)
  /// restores unbounded recording. Call before recording starts.
  void set_ring_capacity(std::size_t max_events) {
    ring_chunks_ = max_events == 0 ? 0 : (max_events + kChunkEvents - 1) / kChunkEvents;
  }
  [[nodiscard]] std::size_t ring_capacity() const { return ring_chunks_ * kChunkEvents; }
  /// Events lost to ring overwrites since the last clear().
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }

  [[nodiscard]] bool wants(TraceCategory c) const {
    return (categories_ & static_cast<std::uint32_t>(c)) != 0;
  }

  // --- identity -------------------------------------------------------------

  /// Allocates a fresh correlation id (per-recorder monotonic counter).
  [[nodiscard]] std::uint64_t next_id() { return ++last_id_; }

  /// Ambient causal context: the trace id of the request currently being
  /// processed (set around servant dispatch), so downstream effects that
  /// fire synchronously — QuO contract transitions, syscond updates —
  /// chain to their cause without plumbing an id through every signature.
  void set_current(std::uint64_t id) { current_ = id; }
  [[nodiscard]] std::uint64_t current() const { return current_; }

  /// Returns a stable lane index for a named track (Chrome "tid"). The
  /// same name always maps to the same index within one recorder.
  [[nodiscard]] std::uint16_t track(std::string_view name);

  /// Interns a dynamic string, returning a pointer that stays valid for
  /// the recorder's lifetime. Intended for labels from a small set
  /// (operation names, contract transitions), not per-event text. A label
  /// already interned costs one hash over its bytes, one index probe and
  /// one equality compare: no allocation and no ordered string compares.
  [[nodiscard]] const char* intern(std::string_view s) { return intern(s, {}); }
  /// Interns the concatenation prefix + s without building it first (the
  /// per-invocation "call <operation>" span names).
  [[nodiscard]] const char* intern(std::string_view prefix, std::string_view s);

  // --- recording ------------------------------------------------------------
  // Callers are expected to have checked wants(cat) already (the macros /
  // Engine::tracer_for pattern does); these still no-op when disabled so
  // misuse cannot crash.

  void instant(TraceCategory cat, const char* name, std::uint16_t track, TimePoint t,
               std::uint64_t id = 0, std::initializer_list<TraceArg> args = {}) {
    push(cat, TracePhase::Instant, name, track, t.ns(), 0, id, args);
  }
  void complete(TraceCategory cat, const char* name, std::uint16_t track, TimePoint start,
                Duration dur, std::uint64_t id = 0,
                std::initializer_list<TraceArg> args = {}) {
    push(cat, TracePhase::Complete, name, track, start.ns(), dur.ns(), id, args);
  }
  void async_begin(TraceCategory cat, const char* name, std::uint16_t track, TimePoint t,
                   std::uint64_t id, std::initializer_list<TraceArg> args = {}) {
    push(cat, TracePhase::AsyncBegin, name, track, t.ns(), 0, id, args);
  }
  void async_end(TraceCategory cat, const char* name, std::uint16_t track, TimePoint t,
                 std::uint64_t id, std::initializer_list<TraceArg> args = {}) {
    push(cat, TracePhase::AsyncEnd, name, track, t.ns(), 0, id, args);
  }
  void counter(TraceCategory cat, const char* name, std::uint16_t track, TimePoint t,
               double value) {
    push(cat, TracePhase::Counter, name, track, t.ns(), 0, 0, {{"value", value}});
  }

  // --- inspection / export --------------------------------------------------

  [[nodiscard]] std::size_t size() const { return total_; }
  [[nodiscard]] bool empty() const { return total_ == 0; }

  /// Invokes fn(const TraceEvent&) over all events in record order
  /// (oldest surviving event first when the ring has wrapped).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (total_ == 0) return;
    // Every chunk but the active one is full. Until the ring wraps the
    // oldest events sit in chunk 0 (chunks after the active one are spares
    // a clear() left); once it has wrapped, just after the active chunk.
    const std::size_t n = chunks_.size();
    std::size_t k = overwritten_ == 0 ? 0 : (active_ + 1) % n;
    for (;;) {
      const TraceEvent* first = chunks_[k]->data();
      const TraceEvent* last = k == active_ ? next_ : first + kChunkEvents;
      for (const TraceEvent* e = first; e != last; ++e) fn(*e);
      if (k == active_) return;
      k = (k + 1) % n;
    }
  }

  /// Drops all events but keeps chunk storage, track registry and interned
  /// strings, so a reused recorder stays allocation-free.
  void clear();

  /// Writes the whole trace as Chrome trace-event JSON ({"traceEvents":
  /// [...]}) with process/thread metadata naming the tracks.
  void write_chrome_json(std::ostream& os) const;

 private:
  static constexpr std::size_t kChunkEvents = 2048;
  using Chunk = std::array<TraceEvent, kChunkEvents>;

  // The fast path: a bump of the active chunk's cursor, inlined into every
  // instrumentation point. Only a full (or not yet allocated) chunk leaves
  // it, for advance().
  void push(TraceCategory cat, TracePhase phase, const char* name, std::uint16_t track,
            std::int64_t ts_ns, std::int64_t dur_ns, std::uint64_t id,
            std::initializer_list<TraceArg> args) {
    if (!wants(cat)) return;
    if (next_ == limit_) [[unlikely]] advance();
    TraceEvent& e = *next_++;
    ++total_;
    e.name = name;
    e.phase = phase;
    e.track = track;
    e.cat = cat;
    e.ts_ns = ts_ns;
    e.dur_ns = dur_ns;
    e.id = id;
    e.argc = static_cast<std::uint8_t>(std::min(args.size(), e.args.size()));
    std::copy_n(args.begin(), e.argc, e.args.begin());
  }
  /// Points the cursor at the next chunk to fill: a spare left by clear(),
  /// the oldest chunk of a full ring (reclaimed wholesale), or a new one.
  void advance();

  const std::uint32_t categories_;
  TraceEvent* next_ = nullptr;   // next free slot of the active chunk
  TraceEvent* limit_ = nullptr;  // one past the active chunk's last slot
  std::size_t total_ = 0;
  std::uint64_t last_id_ = 0;
  std::uint64_t current_ = 0;
  std::uint64_t uid_;
  std::size_t active_ = 0;       // chunk currently being filled
  std::size_t ring_chunks_ = 0;  // 0 = unbounded; else max chunks kept
  std::uint64_t overwritten_ = 0;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::string> track_names_;
  std::map<std::string, std::uint16_t, std::less<>> track_index_;
  // Interned strings held by unique_ptr so c_str() pointers stay stable
  // while the vector grows. intern_index_ maps a 64-bit hash of the bytes
  // to the first string with that hash; strings whose hashes collide chain
  // through `next`.
  struct Interned {
    std::unique_ptr<std::string> text;
    std::uint32_t next = kNoSlot;
  };
  std::vector<Interned> interned_;
  FlatIndex<std::uint64_t> intern_index_;
};

}  // namespace aqm::obs
