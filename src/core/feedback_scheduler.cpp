#include "core/feedback_scheduler.hpp"

#include <cmath>

#include "common/log.hpp"

namespace aqm::core {

FeedbackScheduler::FeedbackScheduler(sim::Engine& engine, obs::TelemetryHub& hub,
                                     FeedbackConfig cfg)
    : engine_(engine), hub_(hub), cfg_(cfg) {}

FeedbackScheduler::~FeedbackScheduler() { stop(); }

void FeedbackScheduler::control_rate(net::FlowId flow, net::IntServQueue& queue,
                                     std::uint32_t bucket_bytes) {
  Controlled& c = flows_[flow];
  c.queue = &queue;
  c.bucket_bytes = bucket_bytes;
  c.applied_rate_bps = 0.0;
  if (running_) hub_.watch(flow);
}

void FeedbackScheduler::start() {
  if (running_) return;
  running_ = true;
  // Watch registration is deferred to here so an installed-but-disabled
  // controller adds nothing to the delivery path (DESIGN.md §13): the
  // hub's windowed aggregation for controlled flows begins when the
  // controller does.
  for (auto& [flow, c] : flows_) hub_.watch(flow);
  // First epoch at the next integer multiple of the epoch length strictly
  // after now — the deterministic grid shared with the telemetry window
  // boundaries, independent of when start() was called.
  const std::int64_t e = cfg_.epoch.ns();
  const std::int64_t next = (engine_.now().ns() / e + 1) * e;
  pending_ = engine_.at(TimePoint{next}, [this] { tick(engine_.now()); });
}

void FeedbackScheduler::stop() {
  if (!running_) return;
  running_ = false;
  engine_.cancel(pending_);
}

void FeedbackScheduler::tick(TimePoint now) {
  run_epoch(now);
  if (running_) {
    pending_ = engine_.at(now + cfg_.epoch, [this] { tick(engine_.now()); });
  }
}

double FeedbackScheduler::measure_deficit(const obs::WindowStats& w) const {
  // p99 latency above this contributes (p99/target - 1) to the deficit.
  constexpr double kLatencyTargetMs = 50.0;
  double d = cfg_.miss_weight * w.miss_rate + cfg_.drop_weight * w.drop_rate;
  if (w.p99_latency_ms > kLatencyTargetMs) {
    d += cfg_.latency_weight * (w.p99_latency_ms / kLatencyTargetMs - 1.0);
  }
  return d;
}

void FeedbackScheduler::run_epoch(TimePoint now) {
  ++epochs_run_;
  if (flows_.empty()) return;

  // Sense: smoothed deficit per flow, plus the share denominator. Two
  // passes because proportional division needs the pool-wide sum; both
  // iterate the same ordered map, so the visit order (and therefore the
  // hub roll order and any resulting health events) is ascending flow id.
  double net_denom = 0.0;
  for (auto& [flow, c] : flows_) {
    const obs::WindowStats w = hub_.window(flow, now);
    const double measured = measure_deficit(w);
    c.deficit = (1.0 - cfg_.smoothing) * c.deficit + cfg_.smoothing * measured;
    net_denom += cfg_.min_share + c.deficit;
  }

  // Actuate: proportional-to-deficit shares, re-stamped in place only
  // when outside the hysteresis dead zone.
  if (net_denom <= 0.0) return;
  for (auto& [flow, c] : flows_) {
    const double share = (cfg_.min_share + c.deficit) / net_denom;
    const double rate = share * cfg_.net_pool_bps;
    const double cur = c.applied_rate_bps;
    const bool outside_band = cur <= 0.0 || std::abs(rate - cur) > cfg_.hysteresis * cur;
    if (!(outside_band && rate > 0.0)) continue;
    if (c.queue->update_reservation(flow, rate, c.bucket_bytes, now)) {
      c.applied_rate_bps = rate;
      ++restamps_applied_;
    } else {
      ++restamps_rejected_;
      AQM_DEBUG() << "feedback: rate re-stamp skipped, flow " << flow
                  << " has no reservation on the controlled queue";
    }
  }
}

double FeedbackScheduler::deficit(net::FlowId flow) const {
  const auto it = flows_.find(flow);
  return it == flows_.end() ? 0.0 : it->second.deficit;
}

}  // namespace aqm::core
