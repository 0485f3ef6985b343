#include "net/red_queue.hpp"

#include <algorithm>
#include <cassert>

#include "obs/telemetry.hpp"

namespace aqm::net {

RedQueue::RedQueue(RedConfig config) : config_(config), rng_(config.seed) {
  assert(config_.capacity_packets > 0);
  assert(config_.min_threshold < config_.max_threshold);
  assert(config_.max_probability > 0.0 && config_.max_probability <= 1.0);
  assert(config_.weight > 0.0 && config_.weight <= 1.0);
}

bool RedQueue::congestion_signal() {
  if (avg_ < config_.min_threshold) {
    count_since_mark_ = -1;
    return false;
  }
  if (avg_ >= config_.max_threshold) {
    count_since_mark_ = 0;
    return true;
  }
  ++count_since_mark_;
  const double pb = config_.max_probability * (avg_ - config_.min_threshold) /
                    (config_.max_threshold - config_.min_threshold);
  // Uniform spacing refinement: pa = pb / (1 - count * pb).
  const double denom = 1.0 - static_cast<double>(count_since_mark_) * pb;
  const double pa = denom <= 0.0 ? 1.0 : std::min(1.0, pb / denom);
  if (rng_.bernoulli(pa)) {
    count_since_mark_ = 0;
    return true;
  }
  return false;
}

std::optional<Packet> RedQueue::enqueue(Packet p, TimePoint now) {
  avg_ = (1.0 - config_.weight) * avg_ +
         config_.weight * static_cast<double>(q_.size());

  if (q_.size() >= config_.capacity_packets) {
    count_drop(p);
    return p;
  }
  if (congestion_signal()) {
    if (config_.ecn && p.ecn == Ecn::Capable) {
      p.ecn = Ecn::CongestionExperienced;
      ++marked_;
      // marked packets are still enqueued
      if (obs::TraceRecorder* tr = tracer()) {
        tr->instant(obs::TraceCategory::Net, "red.mark", trace_track(), now, p.trace,
                    {{"avg", avg_}, {"flow", static_cast<double>(p.flow)}});
      }
      if (obs::TelemetryHub* th = telemetry()) th->on_ce_mark(p.flow, now);
    } else {
      ++early_dropped_;
      if (obs::TraceRecorder* tr = tracer()) {
        tr->instant(obs::TraceCategory::Net, "red.early_drop", trace_track(), now,
                    p.trace, {{"avg", avg_}, {"flow", static_cast<double>(p.flow)}});
      }
      count_drop(p);
      return p;
    }
  }
  count_enqueue(p);
  bytes_ += p.size_bytes;
  q_.push_back(std::move(p));
  return std::nullopt;
}

std::optional<Packet> RedQueue::dequeue() {
  if (q_.empty()) return std::nullopt;
  Packet p = q_.pop_front();
  bytes_ -= p.size_bytes;
  count_dequeue();
  return p;
}

}  // namespace aqm::net
