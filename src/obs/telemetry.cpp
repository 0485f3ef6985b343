#include "obs/telemetry.hpp"

#include <algorithm>

namespace aqm::obs {
namespace {

constexpr double kThroughputAlpha = 0.3;  // EWMA weight per completed bucket
constexpr double kLatencyLoMs = 0.01;     // log-histogram layout for latency
constexpr double kLatencyHiMs = 100000.0;
constexpr std::size_t kLatencyBuckets = 96;
constexpr std::size_t kFlightCapacity = 8192;  // flight-ring size in events
constexpr std::size_t kRecentTraces = 16;      // per-flow recent trace ids kept
constexpr std::size_t kMaxDumps = 8;           // flight dumps captured per trial
/// Consecutive violating window evaluations before a flow breaches, and
/// consecutive clean ones before it recovers.
constexpr std::uint32_t kBreachWindows = 2;
constexpr std::uint32_t kRecoverWindows = 2;

}  // namespace

TelemetryHub::TelemetryHub()
    : latency_layout_(Histogram::log_scaled(kLatencyLoMs, kLatencyHiMs, kLatencyBuckets)),
      window_scratch_(latency_layout_),
      flight_(kDefaultCategories),
      dump_source_(&flight_) {
  flight_.set_ring_capacity(kFlightCapacity);
}

TelemetryHub::FlowState& TelemetryHub::flow_state(std::uint64_t flow) {
  if (flow == mru_flow_ && mru_flow_ != 0) return flows_[mru_slot_];
  const auto [slot, inserted] =
      flow_index_.try_insert(flow, static_cast<std::uint32_t>(flows_.size()));
  if (inserted) {
    flows_.emplace_back();
    flows_.back().id = flow;
  }
  mru_flow_ = flow;
  mru_slot_ = slot;
  return flows_[slot];
}

void TelemetryHub::enable_window(FlowState& f, TimePoint now) {
  if (f.windowed) return;
  f.windowed = true;
  f.ring.reserve(kWindowBuckets);
  for (std::uint32_t i = 0; i < kWindowBuckets; ++i) f.ring.emplace_back(latency_layout_);
  // Bucket boundaries are integer multiples of the bucket width on the
  // simulation clock, so evaluation instants are deterministic regardless
  // of when monitoring was enabled.
  f.bucket_start_ns = (now.ns() / kBucketNs) * kBucketNs;
  f.recent_traces.assign(kRecentTraces, 0);
}

void TelemetryHub::set_slo(std::uint64_t flow, const SloSpec& spec) {
  if (flow == 0) return;
  FlowState& f = flow_state(flow);
  f.spec = spec;
  f.has_spec = spec.any();
  if (f.has_spec) enable_window(f, TimePoint::zero());
}

void TelemetryHub::watch(std::uint64_t flow) {
  if (flow == 0) return;
  enable_window(flow_state(flow), TimePoint::zero());
}

void TelemetryHub::clear_slo(std::uint64_t flow) {
  const std::uint32_t slot = flow_index_.find(flow);
  if (slot == kNoSlot) return;
  FlowState& f = flows_[slot];
  f.spec = SloSpec{};
  f.has_spec = false;
  f.bad_streak = 0;
  f.good_streak = 0;
}

const SloSpec* TelemetryHub::slo(std::uint64_t flow) const {
  const std::uint32_t slot = flow_index_.find(flow);
  if (slot == kNoSlot || !flows_[slot].has_spec) return nullptr;
  return &flows_[slot].spec;
}

void TelemetryHub::roll(FlowState& f, std::int64_t now_ns) {
  while (now_ns >= f.bucket_start_ns + kBucketNs) {
    const std::int64_t boundary = f.bucket_start_ns + kBucketNs;
    // The bucket that just completed updates the throughput EWMA before
    // the window is judged at this boundary.
    const double inst_bps = static_cast<double>(f.ring[f.cur].bytes) * 8.0e9 /
                            static_cast<double>(kBucketNs);
    if (!f.ewma_seeded) {
      f.ewma_bps = inst_bps;
      f.ewma_seeded = true;
    } else {
      f.ewma_bps = kThroughputAlpha * inst_bps + (1.0 - kThroughputAlpha) * f.ewma_bps;
    }
    evaluate(f, boundary);
    // Advance: the next slot holds the window's oldest bucket; retire it
    // from the incrementally-maintained aggregates and reuse its storage.
    f.cur = (f.cur + 1) % static_cast<std::uint32_t>(f.ring.size());
    Bucket& expiring = f.ring[f.cur];
    if (expiring.latency.count() != 0) expiring.latency.clear();
    f.w_calls -= expiring.calls;
    f.w_misses -= expiring.misses;
    f.w_deliveries -= expiring.deliveries;
    f.w_drops -= expiring.drops;
    f.w_bytes -= expiring.bytes;
    expiring.calls = expiring.misses = expiring.deliveries = expiring.drops = 0;
    expiring.bytes = 0;
    f.bucket_start_ns = boundary;
  }
}

WindowStats TelemetryHub::window_stats(const FlowState& f) {
  WindowStats w;
  w.calls = f.w_calls;
  w.misses = f.w_misses;
  w.deliveries = f.w_deliveries;
  w.drops = f.w_drops;
  w.bytes = f.w_bytes;
  w.miss_rate = w.calls == 0 ? 0.0
                             : static_cast<double>(w.misses) / static_cast<double>(w.calls);
  const std::uint64_t seen = w.deliveries + w.drops;
  w.drop_rate = seen == 0 ? 0.0 : static_cast<double>(w.drops) / static_cast<double>(seen);
  // The window-wide latency histogram is materialized here, not maintained
  // per observation: merging K bucket histograms at an evaluation instant
  // amortizes to (K * buckets) / observations-per-bucket, far cheaper
  // than a second histogram add on every hot-path observation. Buckets
  // without latency samples (oneway-only flows have none) are skipped, and
  // a window with no samples at all leaves the scratch untouched.
  bool sampled = false;
  for (const Bucket& b : f.ring) {
    if (b.latency.count() == 0) continue;
    if (!sampled) window_scratch_.clear();
    sampled = true;
    window_scratch_.merge(b.latency);
  }
  w.p99_latency_ms = sampled ? window_scratch_.quantile(0.99) : 0.0;
  w.throughput_bps = f.ewma_seeded ? f.ewma_bps : 0.0;
  return w;
}

void TelemetryHub::evaluate(FlowState& f, std::int64_t t_ns) {
  if (!f.has_spec) return;
  const WindowStats w = window_stats(f);
  // Windows with no traffic at all are skipped as "clean": an idle flow
  // recovers (nothing is violated) rather than pinning a breach forever
  // after load stops.
  const bool empty = w.calls == 0 && w.deliveries == 0 && w.drops == 0;
  const char* metric = nullptr;
  double value = 0.0;
  double threshold = 0.0;
  if (!empty) {
    const SloSpec& s = f.spec;
    if (s.max_miss_rate && w.miss_rate > *s.max_miss_rate) {
      metric = "miss_rate";
      value = w.miss_rate;
      threshold = *s.max_miss_rate;
    } else if (s.max_drop_rate && w.drop_rate > *s.max_drop_rate) {
      metric = "drop_rate";
      value = w.drop_rate;
      threshold = *s.max_drop_rate;
    } else if (s.max_p99_latency_ms && w.p99_latency_ms > *s.max_p99_latency_ms) {
      metric = "p99_latency_ms";
      value = w.p99_latency_ms;
      threshold = *s.max_p99_latency_ms;
    }
  }
  if (metric != nullptr) {
    f.good_streak = 0;
    ++f.bad_streak;
    if (!f.breached && f.bad_streak >= kBreachWindows) {
      f.breached = true;
      f.breach_since_ns = t_ns;
      ++f.summary.breaches;
      events_.push_back({t_ns, f.id, true, metric, value, threshold, w});
      capture_dump(f, t_ns, metric);
    }
  } else {
    f.bad_streak = 0;
    ++f.good_streak;
    if (f.breached && f.good_streak >= kRecoverWindows) {
      f.breached = false;
      f.summary.breached_ns += t_ns - f.breach_since_ns;
      ++f.summary.recoveries;
      events_.push_back({t_ns, f.id, false, "recovered", 0.0, 0.0, w});
    }
  }
}

void TelemetryHub::note_trace(FlowState& f, std::uint64_t trace) {
  if (trace == 0 || f.recent_traces.empty()) return;
  f.recent_traces[f.recent_pos] = trace;
  f.recent_pos = (f.recent_pos + 1) % f.recent_traces.size();
}

void TelemetryHub::capture_dump(const FlowState& f, std::int64_t t_ns,
                                const char* metric) {
  if (dumps_.size() >= kMaxDumps || dump_source_ == nullptr) return;
  FlightDump d;
  d.t_ns = t_ns;
  d.flow = f.id;
  d.metric = metric;
  d.ring_overwritten = dump_source_->overwritten();
  const std::int64_t lo = t_ns - kWindowNs;
  dump_source_->for_each([&](const TraceEvent& e) {
    if (e.ts_ns < lo) return;
    bool implicated = false;
    if (e.id != 0) {
      for (const std::uint64_t id : f.recent_traces) {
        if (id != 0 && id == e.id) {
          implicated = true;
          break;
        }
      }
    }
    if (!implicated && e.argc > 0) {
      const auto flow_val = static_cast<double>(f.id);
      for (std::uint8_t i = 0; i < e.argc; ++i) {
        if (e.args[i].key != nullptr && std::string_view(e.args[i].key) == "flow" &&
            e.args[i].value == flow_val) {
          implicated = true;
          break;
        }
      }
    }
    if (!implicated) return;
    FlightEvent fe;
    fe.ts_ns = e.ts_ns;
    fe.cat = to_string(e.cat);
    fe.name = e.name != nullptr ? e.name : "?";
    fe.id = e.id;
    fe.argc = e.argc;
    for (std::uint8_t i = 0; i < e.argc; ++i) {
      fe.args[i] = {e.args[i].key != nullptr ? e.args[i].key : "?", e.args[i].value};
    }
    d.events.push_back(std::move(fe));
  });
  dumps_.push_back(std::move(d));
}

void TelemetryHub::on_deadline_miss(std::uint64_t flow, TimePoint now,
                                    std::uint64_t trace) {
  if (flow == 0) {
    ++global_misses_;
    return;
  }
  FlowState& f = flow_state(flow);
  ++f.total_calls;
  ++f.total_misses;
  note_trace(f, trace);
  if (!f.windowed) return;
  roll(f, now.ns());
  Bucket& b = f.ring[f.cur];
  ++b.calls;
  ++b.misses;
  ++f.w_calls;
  ++f.w_misses;
}

void TelemetryHub::on_retry(std::uint64_t flow, TimePoint now) {
  (void)now;
  if (flow == 0) return;
  ++flow_state(flow).total_retries;
}

void TelemetryHub::on_ce_mark(std::uint64_t flow, TimePoint now) {
  (void)now;
  if (flow == 0) return;
  ++flow_state(flow).total_ce_marks;
}

void TelemetryHub::on_queue_depth(std::size_t packets) {
  queue_depth_.add(static_cast<double>(packets));
}

void TelemetryHub::on_jitter(std::uint64_t flow, double jitter_ms) {
  if (flow == 0) return;
  flow_state(flow).jitter_ms.add(jitter_ms);
}

void TelemetryHub::on_reserve_overrun(std::uint64_t reserve_id, TimePoint now) {
  (void)reserve_id;
  (void)now;
  ++reserve_overruns_;
}

void TelemetryHub::poll(TimePoint now) {
  // Ascending flow-id order so same-boundary health events from different
  // flows land in the stream in a deterministic order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  order.reserve(flows_.size());
  for (std::uint32_t slot = 0; slot < flows_.size(); ++slot) {
    if (flows_[slot].windowed) order.emplace_back(flows_[slot].id, slot);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [id, slot] : order) roll(flows_[slot], now.ns());
}

void TelemetryHub::finalize(TimePoint now) {
  poll(now);
  for (FlowState& f : flows_) {
    if (f.breached) {
      f.summary.breached_ns += now.ns() - f.breach_since_ns;
      f.breach_since_ns = now.ns();
    }
  }
}

bool TelemetryHub::breached(std::uint64_t flow) const {
  const std::uint32_t slot = flow_index_.find(flow);
  return slot != kNoSlot && flows_[slot].breached;
}

WindowStats TelemetryHub::window(std::uint64_t flow, TimePoint now) {
  if (flow == 0) return {};
  FlowState& f = flow_state(flow);
  if (!f.windowed) return {};
  roll(f, now.ns());
  return window_stats(f);
}

HealthReport TelemetryHub::report() const {
  HealthReport r;
  r.events = events_;
  for (const FlowState& f : flows_) {
    if (f.has_spec || f.summary.breaches > 0) r.flows.emplace(f.id, f.summary);
  }
  return r;
}

void TelemetryHub::export_metrics(MetricsRegistry& reg, std::string_view prefix) const {
  const std::string p(prefix);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  order.reserve(flows_.size());
  for (std::uint32_t slot = 0; slot < flows_.size(); ++slot) {
    order.emplace_back(flows_[slot].id, slot);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [id, slot] : order) {
    const FlowState& f = flows_[slot];
    const std::string fp = p + ".flow" + std::to_string(id);
    reg.counter(fp + ".calls").inc(f.total_calls);
    reg.counter(fp + ".deadline_misses").inc(f.total_misses);
    reg.counter(fp + ".retries").inc(f.total_retries);
    reg.counter(fp + ".deliveries").inc(f.total_deliveries);
    reg.counter(fp + ".drops").inc(f.total_drops);
    reg.counter(fp + ".ce_marks").inc(f.total_ce_marks);
    reg.counter(fp + ".delivered_bytes").inc(f.total_bytes);
    if (!f.jitter_ms.empty()) reg.stats(fp + ".jitter_ms").merge(f.jitter_ms);
    if (f.has_spec || f.summary.breaches > 0) {
      reg.counter(fp + ".breaches").inc(f.summary.breaches);
      reg.counter(fp + ".recoveries").inc(f.summary.recoveries);
      reg.gauge(fp + ".breached_ms")
          .set(static_cast<double>(f.summary.breached_ns) / 1e6);
    }
  }
  if (!queue_depth_.empty()) reg.stats(p + ".queue_depth").merge(queue_depth_);
  reg.counter(p + ".reserve_overruns").inc(reserve_overruns_);
  reg.counter(p + ".health_events").inc(events_.size());
  reg.counter(p + ".flight_dumps").inc(dumps_.size());
  reg.counter(p + ".flight_overwritten").inc(flight_.overwritten());
  if (global_drops_ + global_deliveries_ + global_misses_ > 0) {
    reg.counter(p + ".unattributed.drops").inc(global_drops_);
    reg.counter(p + ".unattributed.deliveries").inc(global_deliveries_);
    reg.counter(p + ".unattributed.deadline_misses").inc(global_misses_);
  }
}

}  // namespace aqm::obs
