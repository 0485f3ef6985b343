// Streaming QoS telemetry: always-on, allocation-free-in-steady-state
// sensing for the runtime control plane. Three pieces on top of the obs
// substrate (DESIGN.md §12):
//
//  * SloMonitor — per-flow sliding-window aggregations over a ring of
//    fixed time buckets on the engine clock: deadline-miss rate, drop
//    rate, log-bucketed latency quantiles (p50/p99 via the HDR-style
//    Histogram layout), and EWMA throughput; evaluated against per-flow
//    SLO specs with breach/recovery hysteresis.
//  * Flight recorder — a lossy bounded ring of TraceEvents (TraceRecorder
//    in ring mode) that is always on at near-zero cost; on SLO breach the
//    hub cuts the last window of events for the implicated flow/trace ids
//    into a dump, so post-mortems work without full tracing enabled.
//  * Health-event stream — deterministic breach/recovery transitions,
//    evaluated only at bucket-boundary instants (integer multiples of the
//    bucket width on the simulation clock), emitted as a name-sorted JSON
//    sidecar byte-identical for any --jobs, merged across workers like
//    the metrics registry.
//
// Layering: obs does not depend on net/orb/os, so flows are keyed by the
// raw std::uint64_t flow id (net::FlowId) and observation points pass
// simulation TimePoints explicitly. The engine carries one TelemetryHub
// pointer (Engine::set_telemetry) exactly like the tracer, so every
// instrumentation point costs a single pointer test when telemetry is
// detached.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_index.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aqm::obs {

/// Per-flow service-level objective. Only the set fields are evaluated;
/// rates are per sliding window, latency is the window p99. Hysteresis
/// (telemetry.cpp): a flow must violate for two consecutive window
/// evaluations to breach and be clean for two consecutive evaluations to
/// recover.
struct SloSpec {
  std::optional<double> max_miss_rate;        // deadline misses / calls
  std::optional<double> max_drop_rate;        // drops / (deliveries + drops)
  std::optional<double> max_p99_latency_ms;   // window p99 of call latency

  [[nodiscard]] bool any() const {
    return max_miss_rate || max_drop_rate || max_p99_latency_ms;
  }

  friend bool operator==(const SloSpec&, const SloSpec&) = default;
};

/// Aggregates over one full sliding window, captured at an evaluation
/// instant (a bucket boundary).
struct WindowStats {
  std::uint64_t calls = 0;       // completed + deadline-missed invocations
  std::uint64_t misses = 0;      // deadline misses
  std::uint64_t deliveries = 0;  // packets delivered at destination
  std::uint64_t drops = 0;       // packets dropped in the network
  std::uint64_t bytes = 0;       // delivered payload bytes
  double miss_rate = 0.0;
  double drop_rate = 0.0;
  double p99_latency_ms = 0.0;
  double throughput_bps = 0.0;  // EWMA, updated once per completed bucket
};

/// One breach or recovery transition in the deterministic health stream.
struct HealthEvent {
  std::int64_t t_ns = 0;       // evaluation instant (bucket boundary)
  std::uint64_t flow = 0;
  bool breach = false;         // false = recovery
  const char* metric = "";     // violated metric name; "recovered" on recovery
  double value = 0.0;          // observed value of that metric
  double threshold = 0.0;      // configured bound
  WindowStats window;          // window stats at the transition
};

/// Per-flow lifetime health accounting for the sidecar summary.
struct FlowHealthSummary {
  std::uint64_t breaches = 0;
  std::uint64_t recoveries = 0;
  std::int64_t breached_ns = 0;  // total simulated time spent breached
};

/// One trial's health stream: events in occurrence order plus name-sorted
/// per-flow summaries. Mergeable like MetricsSnapshot (summaries sum;
/// per-trial event lists are kept per trial, the merge counts them).
struct HealthReport {
  std::vector<HealthEvent> events;
  std::map<std::uint64_t, FlowHealthSummary> flows;
};

/// A copied-out flight-recorder event (cold path: names are owned strings
/// so dumps outlive the recorder's interning table).
struct FlightEvent {
  std::int64_t ts_ns = 0;
  const char* cat = "";  // category name (static)
  std::string name;
  std::uint64_t id = 0;
  std::uint8_t argc = 0;
  std::array<std::pair<std::string, double>, 2> args{};
};

/// The last window of flight-recorder events implicated in one breach.
struct FlightDump {
  std::int64_t t_ns = 0;        // breach evaluation instant
  std::uint64_t flow = 0;
  std::string metric;
  std::uint64_t ring_overwritten = 0;  // ring loss counter at dump time
  std::vector<FlightEvent> events;
};

/// The engine-wired telemetry hub: owns the per-flow SLO monitors, the
/// flight ring and the health stream for one trial (one hub per trial,
/// like TraceRecorder/MetricsRegistry, keeps shard-parallel sweeps
/// race-free). All observation points are O(1) with an MRU flow cache;
/// windows roll lazily when an observation or poll crosses a bucket
/// boundary, so quiet periods cost nothing until the next touch.
///
/// The window is kWindowBuckets buckets of kBucket each. The EWMA weight,
/// latency histogram layout, flight-ring size and dump bounds are fixed
/// too (telemetry.cpp).
class TelemetryHub {
 public:
  static constexpr Duration kBucket = milliseconds(100);  // window bucket width
  static constexpr std::uint32_t kWindowBuckets = 10;     // window = kBucket * kWindowBuckets

  TelemetryHub();
  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  // --- SLO specs ------------------------------------------------------------

  void set_slo(std::uint64_t flow, const SloSpec& spec);
  void clear_slo(std::uint64_t flow);
  [[nodiscard]] const SloSpec* slo(std::uint64_t flow) const;
  /// Enables windowed aggregation for a flow without attaching an SLO —
  /// feedback controllers need measured window stats for every flow they
  /// re-divide resources over, not just the SLO-bearing ones. Idempotent;
  /// implied by set_slo.
  void watch(std::uint64_t flow);

  // --- observation points ---------------------------------------------------
  // Flow 0 (net::kNoFlow) contributes to global counters only. `now` is
  // the engine clock at the observation.

  // The three per-call/per-packet points (on_call, on_delivery, on_drop)
  // are defined inline below the state structs: they sit on the engine hot
  // loop, and the cross-TU call alone is measurable at BM_TelemetryOverhead
  // densities. The rarer points stay out of line.

  /// A completed client invocation: latency from post-marshal send to
  /// reply completion. `trace` (0 = none) registers the id as recently
  /// implicated for flight-recorder dumps.
  void on_call(std::uint64_t flow, TimePoint now, double latency_ms,
               std::uint64_t trace = 0);
  /// A deadline miss (client timeout, establish-time veto or server-side
  /// expiry). Counts as a call for the miss-rate denominator.
  void on_deadline_miss(std::uint64_t flow, TimePoint now, std::uint64_t trace = 0);
  void on_retry(std::uint64_t flow, TimePoint now);
  /// A packet delivered at its destination node.
  void on_delivery(std::uint64_t flow, TimePoint now, std::uint64_t bytes);
  /// A packet dropped anywhere in the network (queue full, RED, no route).
  void on_drop(std::uint64_t flow, TimePoint now, std::uint64_t trace = 0);
  void on_ce_mark(std::uint64_t flow, TimePoint now);
  void on_queue_depth(std::size_t packets);
  void on_jitter(std::uint64_t flow, double jitter_ms);
  void on_reserve_overrun(std::uint64_t reserve_id, TimePoint now);

  // --- driving --------------------------------------------------------------

  /// Rolls every monitored flow's window up to `now` (ascending flow-id
  /// order, so health events from different flows at the same boundary
  /// are deterministically ordered). Call periodically (or not at all:
  /// observations self-roll; poll only bounds staleness of quiet flows).
  void poll(TimePoint now);
  /// poll + closes breached intervals in the summaries at `now`. Call
  /// once at end of trial before reading report().
  void finalize(TimePoint now);

  // --- results --------------------------------------------------------------

  [[nodiscard]] const std::vector<HealthEvent>& events() const { return events_; }
  [[nodiscard]] HealthReport report() const;
  [[nodiscard]] const std::vector<FlightDump>& dumps() const { return dumps_; }
  [[nodiscard]] bool breached(std::uint64_t flow) const;
  /// Control-plane poll surface: rolls the flow to `now` and returns its
  /// current window aggregates (zeros for unmonitored flows).
  [[nodiscard]] WindowStats window(std::uint64_t flow, TimePoint now);

  /// The always-on flight ring. Attach as the engine tracer when full
  /// tracing is off: engine.set_tracer(&hub.flight()).
  [[nodiscard]] TraceRecorder& flight() { return flight_; }
  /// Where breach dumps are cut from; defaults to the internal flight
  /// ring. Point at the full recorder when --trace is enabled.
  void set_dump_source(const TraceRecorder* rec) { dump_source_ = rec; }

  /// Exports lifetime per-flow counters, health totals and hub-global
  /// stats under `prefix` (per-flow names ascending by id).
  void export_metrics(MetricsRegistry& reg, std::string_view prefix) const;

 private:
  struct Bucket {
    std::uint64_t calls = 0;
    std::uint64_t misses = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t drops = 0;
    std::uint64_t bytes = 0;
    Histogram latency;
    explicit Bucket(const Histogram& layout) : latency(layout) {}
  };

  // alignas(64): the leading hot group (everything an inline observation
  // touches — flags, current-bucket cursor, ring pointer, the two hottest
  // counters) is laid out to share one cache line, and the alignment pins
  // that line to a cache-line boundary inside the flows_ vector.
  struct alignas(64) FlowState {
    std::uint64_t id = 0;
    std::int64_t bucket_start_ns = 0;  // start of the bucket being filled
    std::uint32_t cur = 0;             // ring index of that bucket
    bool has_spec = false;
    bool windowed = false;  // ring allocated (flows with a spec)
    // Window ring; the counters are maintained incrementally over all live
    // buckets (added on observation, subtracted on expiry).
    std::vector<Bucket> ring;
    std::uint64_t total_calls = 0;  // lifetime; hot-line resident
    std::uint64_t w_calls = 0, w_misses = 0, w_deliveries = 0, w_drops = 0,
                  w_bytes = 0;
    std::uint64_t total_deliveries = 0, total_bytes = 0;

    SloSpec spec;
    double ewma_bps = 0.0;
    bool ewma_seeded = false;

    // Hysteresis state.
    std::uint32_t bad_streak = 0;
    std::uint32_t good_streak = 0;
    bool breached = false;
    std::int64_t breach_since_ns = 0;
    FlowHealthSummary summary;

    // Recently implicated trace ids for flight dumps.
    std::vector<std::uint64_t> recent_traces;
    std::size_t recent_pos = 0;

    // Remaining lifetime counters (export_metrics).
    std::uint64_t total_misses = 0, total_retries = 0, total_drops = 0,
                  total_ce_marks = 0;
    RunningStats jitter_ms;
  };

  [[nodiscard]] FlowState& flow_state(std::uint64_t flow);
  void enable_window(FlowState& f, TimePoint now);
  /// Rolls f's ring forward until `now` falls inside the current bucket,
  /// evaluating the SLO at each crossed boundary.
  void roll(FlowState& f, std::int64_t now_ns);
  void evaluate(FlowState& f, std::int64_t t_ns);
  /// Non-const: merges the window's bucket histograms that hold latency
  /// samples into the preallocated scratch for the p99 (the hot
  /// observation path never maintains a window-wide histogram; evaluation
  /// instants pay for it, amortized over a whole bucket of observations).
  [[nodiscard]] WindowStats window_stats(const FlowState& f);
  void note_trace(FlowState& f, std::uint64_t trace);
  void capture_dump(const FlowState& f, std::int64_t t_ns, const char* metric);

  static constexpr std::int64_t kBucketNs = kBucket.ns();
  static constexpr std::int64_t kWindowNs = kBucketNs * kWindowBuckets;

  // Hot group: every field an inline observation point reads sits in the
  // first two cache lines — the MRU cache, the flow array pointer and the
  // latency layout bucket_index() consults. Keep declaration order (=
  // memory order) tight here.
  // MRU cache: the last flow touched, to skip the index probe on runs of
  // observations for the same flow (the common case on the hot path).
  std::uint64_t mru_flow_ = 0;
  std::uint32_t mru_slot_ = 0;
  std::vector<FlowState> flows_;
  Histogram latency_layout_;

  Histogram window_scratch_;  // merge target for window_stats()
  FlatIndex<std::uint64_t> flow_index_;  // flow id -> position in flows_

  std::vector<HealthEvent> events_;
  std::vector<FlightDump> dumps_;
  TraceRecorder flight_;
  const TraceRecorder* dump_source_;

  // Hub-global accounting.
  RunningStats queue_depth_;
  std::uint64_t reserve_overruns_ = 0;
  std::uint64_t global_drops_ = 0;       // flow 0 / unattributed
  std::uint64_t global_deliveries_ = 0;
  std::uint64_t global_misses_ = 0;
};

// --- inline hot-path observation points -------------------------------------
// One MRU compare, one boundary compare, and (for windowed flows) one
// log-bucket classification — everything else is a plain counter bump.
// Defined here so call sites on the engine loop inline the fast path;
// roll()/flow_state()/note_trace() stay out of line (cold).

inline void TelemetryHub::on_call(std::uint64_t flow, TimePoint now,
                                  double latency_ms, std::uint64_t trace) {
  if (flow == 0) return;
  FlowState& f = flow == mru_flow_ ? flows_[mru_slot_] : flow_state(flow);
  ++f.total_calls;
  if (trace != 0) note_trace(f, trace);
  if (!f.windowed) return;
  if (now.ns() - f.bucket_start_ns >= kBucketNs) roll(f, now.ns());
  Bucket& b = f.ring[f.cur];
  ++b.calls;
  b.latency.add_at(latency_layout_.bucket_index(latency_ms));
  ++f.w_calls;
}

inline void TelemetryHub::on_delivery(std::uint64_t flow, TimePoint now,
                                      std::uint64_t bytes) {
  if (flow == 0) {
    ++global_deliveries_;
    return;
  }
  FlowState& f = flow == mru_flow_ ? flows_[mru_slot_] : flow_state(flow);
  ++f.total_deliveries;
  f.total_bytes += bytes;
  if (!f.windowed) return;
  if (now.ns() - f.bucket_start_ns >= kBucketNs) roll(f, now.ns());
  Bucket& b = f.ring[f.cur];
  ++b.deliveries;
  b.bytes += bytes;
  ++f.w_deliveries;
  f.w_bytes += bytes;
}

inline void TelemetryHub::on_drop(std::uint64_t flow, TimePoint now,
                                  std::uint64_t trace) {
  if (flow == 0) {
    ++global_drops_;
    return;
  }
  FlowState& f = flow == mru_flow_ ? flows_[mru_slot_] : flow_state(flow);
  ++f.total_drops;
  if (trace != 0) note_trace(f, trace);
  if (!f.windowed) return;
  if (now.ns() - f.bucket_start_ns >= kBucketNs) roll(f, now.ns());
  ++f.ring[f.cur].drops;
  ++f.w_drops;
}

}  // namespace aqm::obs
