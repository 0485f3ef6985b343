// Weighted fair queuing via Deficit Round Robin (Shreedhar & Varghese).
//
// The strict-priority DiffServ PHB starves lower classes whenever a higher
// class saturates the link. DRR instead shares bandwidth proportionally to
// per-class weights: each backlogged class accumulates `quantum * weight`
// bytes of sending credit per round and transmits packets while its
// deficit covers them. This is the other classic per-hop behavior for AF
// classes (and what Linux `sch_drr` implements).
#pragma once

#include <array>
#include <cstdint>

#include "common/time.hpp"
#include "net/dscp.hpp"
#include "net/queue.hpp"

namespace aqm::net {

struct DrrConfig {
  /// Per-class packet capacity.
  std::size_t class_capacity = 500;
  /// Base quantum (bytes) credited per round; scaled by the class weight.
  /// Should be >= the MTU so every visit can send at least one packet.
  std::uint32_t quantum_bytes = 1500;
  /// Relative weights, indexed by PhbClass (control..best-effort).
  /// Defaults roughly mirror a DiffServ deployment: control and EF heavy,
  /// AF descending, best effort light but never zero (no starvation).
  std::array<std::uint32_t, kPhbClassCount> weights{8, 8, 4, 3, 2, 2, 1};
};

class DrrQueue final : public Queue {
 public:
  explicit DrrQueue(DrrConfig config);

  std::optional<Packet> enqueue(Packet p, TimePoint now) override;
  std::optional<Packet> dequeue(TimePoint now) override;
  [[nodiscard]] std::optional<Duration> next_ready_delay(TimePoint now) const override;
  [[nodiscard]] std::size_t packets() const override;
  [[nodiscard]] std::size_t bytes() const override { return bytes_; }
  void bind_packet_pool(PacketChunkPool& pool) override;

  [[nodiscard]] std::size_t class_packets(PhbClass c) const {
    return classes_[static_cast<std::size_t>(c)].q.size();
  }
  [[nodiscard]] std::uint64_t class_bytes_sent(PhbClass c) const {
    return classes_[static_cast<std::size_t>(c)].bytes_sent;
  }

 private:
  struct ClassState {
    PacketFifo q;
    std::int64_t deficit = 0;
    bool in_active_list = false;
    bool granted_this_round = false;
    std::uint64_t bytes_sent = 0;
  };

  DrrConfig config_;
  std::array<ClassState, kPhbClassCount> classes_;
  /// Round-robin order of the backlogged classes: a ring over the class
  /// indices (each class is in it at most once).
  std::array<std::size_t, kPhbClassCount> active_{};
  std::size_t active_head_ = 0;
  std::size_t active_count_ = 0;
  void active_push(std::size_t cls) {
    active_[(active_head_ + active_count_++) % kPhbClassCount] = cls;
  }
  std::size_t active_pop() {
    const std::size_t cls = active_[active_head_];
    active_head_ = (active_head_ + 1) % kPhbClassCount;
    --active_count_;
    return cls;
  }
  std::size_t bytes_ = 0;
};

}  // namespace aqm::net
