// Test double: a queue discipline that loses each arriving packet by a
// seeded Bernoulli draw before handing the survivors to an inner queue.
// Links have no loss of their own, so a test that needs a noisy segment
// (RSVP retries, link-transmitter equivalence under loss) installs this
// as the link's egress queue. The draw happens at enqueue, in arrival
// order, so two links fed the same arrivals lose the same packets.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "common/rng.hpp"
#include "net/queue.hpp"

namespace aqm::oracle {

class LossyQueue final : public net::Queue {
 public:
  LossyQueue(std::unique_ptr<net::Queue> inner, double loss, std::uint64_t seed)
      : inner_(std::move(inner)), loss_(loss), rng_(seed) {
    // Packets the inner discipline drops after enqueue reach the link too.
    inner_->set_drop_sink([this](const net::Packet& p) { discard(p); });
  }

  std::optional<net::Packet> enqueue(net::Packet p, TimePoint now) override {
    if (rng_.bernoulli(loss_)) {
      count_drop(p);
      return p;
    }
    return inner_->enqueue(std::move(p), now);
  }
  std::optional<net::Packet> dequeue() override { return inner_->dequeue(); }
  [[nodiscard]] std::size_t packets() const override { return inner_->packets(); }
  [[nodiscard]] std::size_t bytes() const override { return inner_->bytes(); }
  void bind_packet_pool(net::PacketChunkPool& pool) override {
    inner_->bind_packet_pool(pool);
  }

 private:
  std::unique_ptr<net::Queue> inner_;
  double loss_;
  Rng rng_;
};

}  // namespace aqm::oracle
