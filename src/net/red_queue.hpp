// Random Early Detection queue with ECN support (RFC 2309 / RFC 3168).
//
// Classic RED: maintain an EWMA of the queue length; between the min and
// max thresholds, mark/drop arriving packets with probability rising
// linearly to the maximum (spread uniformly using the count-since-last-mark
// refinement); above max, mark/drop everything. ECN-capable packets are
// marked CongestionExperienced instead of dropped, giving end-to-end
// adaptation (QuO contracts) an early congestion signal before any loss
// occurs — the counterpart to the ECN bits the paper points out in the
// DiffServ byte. The thresholds are fixed (red_queue.cpp) at the values of
// the ECN ablation's 10 Mbps bottleneck.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/queue.hpp"

namespace aqm::net {

class RedQueue final : public Queue {
 public:
  RedQueue();

  std::optional<Packet> enqueue(Packet p, TimePoint now) override;
  std::optional<Packet> dequeue() override;
  [[nodiscard]] std::size_t packets() const override { return q_.size(); }
  [[nodiscard]] std::size_t bytes() const override { return bytes_; }
  void bind_packet_pool(PacketChunkPool& pool) override { q_.bind(pool); }

  [[nodiscard]] double average_queue() const { return avg_; }
  [[nodiscard]] std::uint64_t ecn_marked() const { return marked_; }
  [[nodiscard]] std::uint64_t early_dropped() const { return early_dropped_; }

 private:
  /// True if RED decides this arrival should be marked/dropped.
  bool congestion_signal();

  Rng rng_;
  PacketFifo q_{own_packet_pool()};
  std::size_t bytes_ = 0;
  double avg_ = 0.0;
  int count_since_mark_ = -1;  // RED's "count" variable
  std::uint64_t marked_ = 0;
  std::uint64_t early_dropped_ = 0;
};

}  // namespace aqm::net
