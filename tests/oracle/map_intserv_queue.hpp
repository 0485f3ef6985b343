// Reference model of net::IntServQueue for differential tests.
//
// The same IntServ discipline kept in the most direct storage: one
// std::map<FlowId, {TokenBucket, std::deque<Packet>}> walked in ascending
// FlowId order for every service decision, plain deques for the control and
// best-effort sub-queues, and a reserved-rate sum recomputed on every query.
// None of the production queue's machinery (flat slot index, shared packet
// node pool, ready-flow heap, incremental rate sum) appears here.
//
// Semantics, shared with net::IntServQueue:
//  * CS6 control traffic is served first from its own queue;
//  * then reserved flows, lowest FlowId first. A packet pays its tokens at
//    enqueue; excess, and packets arriving at a full flow queue, fall to
//    best effort;
//  * then best effort;
//  * with a parent rate set, a reserved packet must conform at its flow's
//    bucket and at the shared parent bucket; a packet that fails either
//    level debits neither. Without a parent, policing is the single flow
//    bucket's consume(), which refills even when it refuses;
//  * re-installing a reservation swaps in a fresh full bucket and keeps the
//    queued packets; removing one demotes them to best effort, dropping
//    those that do not fit.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "net/queue.hpp"
#include "net/token_bucket.hpp"

namespace aqm::oracle {

class MapIntServQueue final : public net::Queue {
 public:
  using Config = net::IntServQueue::Config;

  explicit MapIntServQueue(Config config);

  void install_reservation(net::FlowId flow, double rate_bps, std::uint32_t bucket_bytes,
                           TimePoint now);
  bool update_reservation(net::FlowId flow, double rate_bps, std::uint32_t bucket_bytes,
                          TimePoint now);
  void remove_reservation(net::FlowId flow);
  [[nodiscard]] bool has_reservation(net::FlowId flow) const { return flows_.count(flow) > 0; }
  [[nodiscard]] double reserved_rate_bps() const;
  [[nodiscard]] double flow_rate_bps(net::FlowId flow) const;
  [[nodiscard]] std::size_t reservation_count() const { return flows_.size(); }

  std::optional<net::Packet> enqueue(net::Packet p, TimePoint now) override;
  std::optional<net::Packet> dequeue() override;
  [[nodiscard]] std::size_t packets() const override { return packets_; }
  [[nodiscard]] std::size_t bytes() const override { return bytes_; }
  void bind_packet_pool(net::PacketChunkPool& /*pool*/) override {}

 private:
  struct Flow {
    net::TokenBucket bucket;
    std::deque<net::Packet> q;
  };

  bool police(net::TokenBucket& child, std::uint32_t bytes, TimePoint now);
  /// Accepts into `q` if it holds fewer than `capacity` packets.
  std::optional<net::Packet> admit(std::deque<net::Packet>& q, std::size_t capacity,
                                   net::Packet p);
  net::Packet take(std::deque<net::Packet>& q);

  Config config_;
  std::map<net::FlowId, Flow> flows_;
  std::optional<net::TokenBucket> parent_;
  std::deque<net::Packet> control_;
  std::deque<net::Packet> best_effort_;
  std::size_t packets_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace aqm::oracle
