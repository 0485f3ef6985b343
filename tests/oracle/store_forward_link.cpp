#include "oracle/store_forward_link.hpp"

#include <cassert>
#include <cmath>

namespace aqm::oracle {

StoreForwardLink::StoreForwardLink(sim::Engine& engine, net::NodeId /*from*/,
                                   net::NodeId /*to*/, net::LinkConfig config,
                                   std::unique_ptr<net::Queue> queue)
    : engine_(engine), config_(config), queue_(std::move(queue)) {
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
    engine_.after(config_.propagation, [this, p = std::move(p)]() mutable {
      if (deliver_) deliver_(std::move(p));
    });
    try_transmit();
  });
}

}  // namespace aqm::oracle
