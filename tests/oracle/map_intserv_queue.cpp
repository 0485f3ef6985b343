#include "oracle/map_intserv_queue.hpp"

#include <cassert>

namespace aqm::oracle {

using net::FlowId;
using net::Packet;
using net::TokenBucket;

MapIntServQueue::MapIntServQueue(Config config) : config_(config) {
  if (config_.parent_rate_bps > 0.0) {
    parent_.emplace(config_.parent_rate_bps, net::IntServQueue::kParentBucketBytes);
  }
}

bool MapIntServQueue::police(TokenBucket& child, std::uint32_t bytes, TimePoint now) {
  if (!parent_) return child.consume(bytes, now);
  if (!child.conforms(bytes, now) || !parent_->conforms(bytes, now)) return false;
  child.consume(bytes, now);
  parent_->consume(bytes, now);
  return true;
}

std::optional<Packet> MapIntServQueue::admit(std::deque<Packet>& q, std::size_t capacity,
                                             Packet p) {
  if (q.size() >= capacity) {
    count_drop(p);
    return p;
  }
  count_enqueue(p);
  ++packets_;
  bytes_ += p.size_bytes;
  q.push_back(std::move(p));
  return std::nullopt;
}

Packet MapIntServQueue::take(std::deque<Packet>& q) {
  Packet p = std::move(q.front());
  q.pop_front();
  --packets_;
  bytes_ -= p.size_bytes;
  count_dequeue();
  return p;
}

// --- reservations -----------------------------------------------------------

void MapIntServQueue::install_reservation(FlowId flow, double rate_bps,
                                          std::uint32_t bucket_bytes, TimePoint now) {
  const TokenBucket fresh{rate_bps, bucket_bytes, now};
  if (const auto it = flows_.find(flow); it != flows_.end()) {
    it->second.bucket = fresh;
  } else {
    flows_.emplace(flow, Flow{fresh, {}});
  }
}

bool MapIntServQueue::update_reservation(FlowId flow, double rate_bps,
                                         std::uint32_t bucket_bytes, TimePoint now) {
  const auto it = flows_.find(flow);
  if (it == flows_.end()) return false;
  it->second.bucket.reconfigure(rate_bps, bucket_bytes, now);
  return true;
}

void MapIntServQueue::remove_reservation(FlowId flow) {
  const auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  for (Packet& p : it->second.q) {
    if (best_effort_.size() >= config_.best_effort_capacity) {
      --packets_;
      bytes_ -= p.size_bytes;
      count_drop(p);
    } else {
      best_effort_.push_back(std::move(p));
    }
  }
  flows_.erase(it);
}

double MapIntServQueue::reserved_rate_bps() const {
  double sum = 0.0;
  for (const auto& [id, f] : flows_) sum += f.bucket.rate_bps();
  return sum;
}

double MapIntServQueue::flow_rate_bps(FlowId flow) const {
  const auto it = flows_.find(flow);
  return it == flows_.end() ? 0.0 : it->second.bucket.rate_bps();
}

// --- data plane -------------------------------------------------------------

std::optional<Packet> MapIntServQueue::enqueue(Packet p, TimePoint now) {
  if (net::classify(p.dscp) == net::PhbClass::NetworkControl) {
    return admit(control_, net::IntServQueue::kControlCapacity, std::move(p));
  }
  const auto it = p.flow != net::kNoFlow ? flows_.find(p.flow) : flows_.end();
  if (it != flows_.end()) {
    Flow& f = it->second;
    // Capacity first, so a full flow queue burns no tokens.
    if (f.q.size() < net::IntServQueue::kFlowCapacity &&
        police(f.bucket, p.size_bytes, now)) {
      return admit(f.q, net::IntServQueue::kFlowCapacity, std::move(p));
    }
  }
  return admit(best_effort_, config_.best_effort_capacity, std::move(p));
}

std::optional<Packet> MapIntServQueue::dequeue() {
  if (!control_.empty()) return take(control_);
  for (auto& [id, f] : flows_) {
    if (!f.q.empty()) return take(f.q);
  }
  if (!best_effort_.empty()) return take(best_effort_);
  return std::nullopt;
}

}  // namespace aqm::oracle
