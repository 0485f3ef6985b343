#include "net/red_queue.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"

namespace aqm::net {
namespace {

constexpr std::size_t kCapacityPackets = 1000;
constexpr double kMinThreshold = 30.0;  // avg queue length (packets)
constexpr double kMaxThreshold = 200.0;
constexpr double kMaxProbability = 0.15;  // mark/drop probability at kMaxThreshold
constexpr double kWeight = 0.002;         // EWMA weight per arrival
constexpr std::uint64_t kSeed = 99;

}  // namespace

RedQueue::RedQueue() : rng_(kSeed) {}

bool RedQueue::congestion_signal() {
  if (avg_ < kMinThreshold) {
    count_since_mark_ = -1;
    return false;
  }
  if (avg_ >= kMaxThreshold) {
    count_since_mark_ = 0;
    return true;
  }
  ++count_since_mark_;
  const double pb =
      kMaxProbability * (avg_ - kMinThreshold) / (kMaxThreshold - kMinThreshold);
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
  avg_ = (1.0 - kWeight) * avg_ + kWeight * static_cast<double>(q_.size());

  if (q_.size() >= kCapacityPackets) {
    count_drop(p);
    return p;
  }
  if (congestion_signal()) {
    if (p.ecn == Ecn::Capable) {
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
