#include "oracle/store_forward_link.hpp"

#include <cassert>
#include <cmath>

namespace aqm::oracle {

StoreForwardLink::StoreForwardLink(sim::Engine& engine, net::NodeId from, net::NodeId to,
                                   net::LinkConfig config, std::unique_ptr<net::Queue> queue)
    : engine_(engine),
      config_(config),
      queue_(std::move(queue)),
      loss_rng_(config.loss_seed ^ (static_cast<std::uint64_t>(from) << 32) ^
                static_cast<std::uint64_t>(to) ^ 0xA1B2C3D4E5F60718ULL) {
  assert(queue_ != nullptr);
}

Duration StoreForwardLink::transmission_time(std::uint32_t bytes) const {
  const double s = static_cast<double>(bytes) * 8.0 / config_.bandwidth_bps;
  return Duration{static_cast<std::int64_t>(std::ceil(s * 1e9))};
}

void StoreForwardLink::send(net::Packet p) {
  if (auto rejected = queue_->enqueue(std::move(p), engine_.now())) {
    if (on_drop_) on_drop_(*rejected);
    return;
  }
  if (!busy_) try_transmit();
}

void StoreForwardLink::try_transmit() {
  assert(!busy_);
  auto next = queue_->dequeue();
  if (!next) return;
  busy_ = true;
  ++tx_packets_;
  engine_.after(transmission_time(next->size_bytes), [this, p = std::move(*next)]() mutable {
    busy_ = false;
    if (config_.loss_probability > 0.0 && loss_rng_.bernoulli(config_.loss_probability)) {
      ++corrupted_;
      if (on_drop_) on_drop_(p);
    } else {
      engine_.after(config_.propagation, [this, p = std::move(p)]() mutable {
        if (deliver_) deliver_(std::move(p));
      });
    }
    try_transmit();
  });
}

}  // namespace aqm::oracle
