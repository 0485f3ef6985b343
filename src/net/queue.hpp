// Egress queue disciplines for router/host ports.
//
// Three disciplines cover the paper's network mechanisms:
//  * DropTailQueue   — plain best-effort FIFO (the "before" picture).
//  * DiffServQueue   — strict-priority per-hop behaviour over PHB classes
//                      derived from each packet's DSCP (Section 3.2).
//  * IntServQueue    — RSVP-installed per-flow token-bucket guaranteed
//                      service ahead of best-effort traffic (Section 3.4).
//
// Queued packets never cost a heap allocation in steady state: every FIFO
// is a PacketFifo drawing chunks from the network's shared PacketChunkPool
// (net/packet_fifo.hpp), and IntServ's reserved flows share one recycled
// packet-node pool plus an indexed ready-flow heap (DESIGN.md §10).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "net/dscp.hpp"
#include "net/flow_table.hpp"
#include "net/packet.hpp"
#include "net/packet_fifo.hpp"
#include "net/token_bucket.hpp"
#include "obs/trace.hpp"

namespace aqm::obs {
class TelemetryHub;
}

namespace aqm::net {

struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t enqueued_bytes = 0;
};

/// Interface all disciplines implement. Time is passed explicitly so the
/// discipline has no dependency on the simulation engine.
class Queue {
 public:
  virtual ~Queue() = default;

  /// Accepts or drops the packet. Returns the packet back when it was
  /// dropped (so the caller can report it); nullopt when accepted.
  virtual std::optional<Packet> enqueue(Packet p, TimePoint now) = 0;

  /// Next packet to transmit; nullopt only when the queue is empty. Every
  /// admission decision (policing included) is made at enqueue, so a
  /// queued packet is always eligible and dequeue needs no clock.
  virtual std::optional<Packet> dequeue() = 0;

  [[nodiscard]] virtual std::size_t packets() const = 0;
  [[nodiscard]] virtual std::size_t bytes() const = 0;
  [[nodiscard]] bool empty() const { return packets() == 0; }

  [[nodiscard]] const QueueStats& stats() const { return stats_; }

  /// Observability wiring (done by the owning Link): lets disciplines with
  /// internal decisions (RED marks/early drops, IntServ policing) record
  /// instants on the link's trace lane. The discipline itself stays free of
  /// any engine dependency — it only ever sees the recorder pointer.
  void set_tracer(obs::TraceRecorder* tracer, std::uint16_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  /// Streaming-telemetry wiring, bound lazily by the owning Link the same
  /// way as the tracer; disciplines report CE marks / policing decisions
  /// without any engine dependency.
  void set_telemetry(obs::TelemetryHub* hub) { telemetry_ = hub; }

  /// Wired by the owning Link: receives every packet the discipline drops
  /// outside enqueue (an IntServ teardown demoting into a full best-effort
  /// queue), so it reaches the link's drop hook exactly like a packet
  /// enqueue rejects.
  void set_drop_sink(std::function<void(const Packet&)> fn) { drop_sink_ = std::move(fn); }

  /// Moves every packet FIFO of the discipline onto `pool` (queued packets
  /// included). Network::add_link hands over the network's shared arena;
  /// until then the FIFOs draw from the queue's own pool.
  virtual void bind_packet_pool(PacketChunkPool& pool) = 0;
  /// The queue's private arena, used until bind_packet_pool().
  [[nodiscard]] PacketChunkPool& own_packet_pool() { return own_pool_; }

 protected:
  /// Non-null iff a recorder is attached and wants net events.
  [[nodiscard]] obs::TraceRecorder* tracer() const {
    return tracer_ != nullptr && tracer_->wants(obs::TraceCategory::Net) ? tracer_
                                                                         : nullptr;
  }
  [[nodiscard]] std::uint16_t trace_track() const { return trace_track_; }
  [[nodiscard]] obs::TelemetryHub* telemetry() const { return telemetry_; }

  void count_enqueue(const Packet& p) {
    ++stats_.enqueued;
    stats_.enqueued_bytes += p.size_bytes;
  }
  void count_drop(const Packet& p) {
    ++stats_.dropped;
    stats_.dropped_bytes += p.size_bytes;
  }
  void count_dequeue() { ++stats_.dequeued; }
  /// Drops a packet that was already queued: counts it and reports it to
  /// the drop sink.
  void discard(const Packet& p) {
    count_drop(p);
    if (drop_sink_) drop_sink_(p);
  }

 private:
  // Declared in the base so it outlives the derived class's FIFOs.
  PacketChunkPool own_pool_;
  QueueStats stats_;
  obs::TraceRecorder* tracer_ = nullptr;
  obs::TelemetryHub* telemetry_ = nullptr;
  std::function<void(const Packet&)> drop_sink_;
  std::uint16_t trace_track_ = 0;
};

/// Plain FIFO with a packet-count capacity.
class DropTailQueue final : public Queue {
 public:
  explicit DropTailQueue(std::size_t capacity_packets);

  std::optional<Packet> enqueue(Packet p, TimePoint now) override;
  std::optional<Packet> dequeue() override;
  [[nodiscard]] std::size_t packets() const override { return q_.size(); }
  [[nodiscard]] std::size_t bytes() const override { return bytes_; }
  void bind_packet_pool(PacketChunkPool& pool) override { q_.bind(pool); }

 private:
  std::size_t capacity_;
  PacketFifo q_{own_packet_pool()};
  std::size_t bytes_ = 0;
};

/// Strict-priority DiffServ PHB: one drop-tail sub-queue per PHB class,
/// always serving the highest non-empty class.
class DiffServQueue final : public Queue {
 public:
  /// `class_capacity` is the per-class packet capacity.
  explicit DiffServQueue(std::size_t class_capacity);

  /// Per-class capacities, indexed by PhbClass.
  explicit DiffServQueue(const std::array<std::size_t, kPhbClassCount>& capacities);

  std::optional<Packet> enqueue(Packet p, TimePoint now) override;
  std::optional<Packet> dequeue() override;
  [[nodiscard]] std::size_t packets() const override { return packets_; }
  [[nodiscard]] std::size_t bytes() const override { return bytes_; }
  void bind_packet_pool(PacketChunkPool& pool) override;

  [[nodiscard]] std::size_t class_packets(PhbClass c) const {
    return classes_[static_cast<std::size_t>(c)].size();
  }

 private:
  std::array<PacketFifo, kPhbClassCount> classes_;
  std::array<std::size_t, kPhbClassCount> capacities_;
  std::size_t bytes_ = 0;
  std::size_t packets_ = 0;  // total across classes; packets() is on the hot path
  /// Bit c set iff classes_[c] is non-empty; dequeue picks the lowest set
  /// bit (== highest-priority occupied class) instead of scanning, so the
  /// serve decision is O(1) no matter how the occupied classes spread.
  std::uint32_t occupied_classes_ = 0;
};

/// IntServ guaranteed service. Flows with an installed reservation get a
/// per-flow FIFO policed by a token bucket at enqueue; conforming reserved
/// packets are served strictly ahead of best effort. A reserved flow's
/// excess (non-conforming, or arriving at a full flow queue) is demoted
/// into the best-effort queue, so an over-rate flow still uses spare
/// capacity (RFC 2211 controlled-load style policing).
/// Control-plane (CS6) packets bypass into a dedicated high-priority
/// sub-queue so signaling survives congestion.
///
/// Per-flow state is flat SoA (DESIGN.md §10): a FlowMap FlowId ->
/// dense-slot map over struct-of-arrays fields (token bucket, FIFO
/// head/tail into a shared packet-node pool, queue length), with an
/// indexed min-heap of the ready flows holding packets —
/// so enqueue is O(1)+O(log n), dequeue serves the lowest ready FlowId
/// without touching the other n-1 flows, and neither allocates once warm.
/// tests/test_flow_table_diff replays randomized scripts against this queue
/// and a std::map reference model that lives with the tests, and asserts
/// byte-identical observations.
class IntServQueue final : public Queue {
 public:
  struct Config {
    std::size_t best_effort_capacity = 1000;  // packets
    /// > 0 enables the hierarchical policing parent: one shared per-class
    /// token bucket over all reserved flows; a packet must conform at both
    /// its flow's child bucket and the parent (two bucket touches per
    /// packet, independent of flow count). 0 = per-flow policing only.
    double parent_rate_bps = 0.0;
  };
  static constexpr std::size_t kFlowCapacity = 100;     // packets per reserved flow
  static constexpr std::size_t kControlCapacity = 100;  // packets (CS6 signaling)
  /// Depth of the hierarchical policing parent's bucket.
  static constexpr std::uint32_t kParentBucketBytes = 64'000;

  explicit IntServQueue(Config config);

  // --- reservation plane (driven by the RSVP agent) -------------------------
  void install_reservation(FlowId flow, double rate_bps, std::uint32_t bucket_bytes,
                           TimePoint now);
  /// Queued packets of the flow demote to best effort; those that do not
  /// fit are dropped through the drop sink (counted like enqueue drops).
  void remove_reservation(FlowId flow);
  /// Live re-stamp of an installed reservation: the flow's token bucket is
  /// reconfigured in place (fill level settled at the old rate, clamped to
  /// the new depth) and queued packets stay queued — unlike the RSVP
  /// refresh path in install_reservation, which swaps in a fresh full
  /// bucket. Idempotent; returns false when the flow holds no reservation
  /// (callers fall back to install_reservation).
  bool update_reservation(FlowId flow, double rate_bps, std::uint32_t bucket_bytes,
                          TimePoint now);
  [[nodiscard]] bool has_reservation(FlowId flow) const { return slot_of_.contains(flow); }
  /// Sum of reserved rates, added up in ascending-FlowId order so the
  /// value does not depend on the flow table's layout. One pass over the
  /// reservations plus a sort of their page keys; admission asks once per
  /// request, never per packet.
  [[nodiscard]] double reserved_rate_bps() const;
  /// Reserved rate of one flow; 0 when it holds no reservation.
  [[nodiscard]] double flow_rate_bps(FlowId flow) const;
  /// Number of installed reservations.
  [[nodiscard]] std::size_t reservation_count() const { return slot_of_.size(); }

  // --- Queue interface -------------------------------------------------------
  std::optional<Packet> enqueue(Packet p, TimePoint now) override;
  std::optional<Packet> dequeue() override;
  [[nodiscard]] std::size_t packets() const override { return packets_; }
  [[nodiscard]] std::size_t bytes() const override { return bytes_; }
  void bind_packet_pool(PacketChunkPool& pool) override {
    best_effort_.bind(pool);
    control_.bind(pool);
  }

 private:
  // Two-level policing: with the parent disabled it collapses to the
  // single-bucket consume (including its refill-on-failed-consume side
  // effect), which keeps pre-HTB configurations bit-identical.
  bool policer_consume(TokenBucket& child, std::uint32_t bytes, TimePoint now);
  void trace_demote(const Packet& p, TimePoint now);

  // --- flow table ---------------------------------------------------------------
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  /// Shared FIFO arena: every queued reserved-flow packet lives in one
  /// recycled node pool; per-flow queues are intrusive head/tail lists, so
  /// a flow's queue costs 12 bytes when empty instead of a heap-backed
  /// deque per flow.
  struct PacketNode {
    Packet pkt;
    std::uint32_t next = kNil;
  };
  /// Per-flow FIFO cursor. head/tail/len live together (not as three
  /// parallel arrays) because every touch of a flow needs all three: one
  /// 12-byte line fill per packet instead of three scattered ones.
  struct FlowFifo {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t len = 0;
  };

  // Ready-flow heap: a binary min-heap on FlowId over the flows with queued
  // packets, each carrying its slot; ready_pos_[slot] is the flow's heap
  // position (a flow is in it at most once), so a flow that drains
  // anywhere in the heap leaves in O(log n).
  struct ReadyFlow {
    FlowId id;
    std::uint32_t slot;
  };
  void ready_set(std::size_t pos, ReadyFlow f) {
    ready_[pos] = f;
    ready_pos_[f.slot] = static_cast<std::uint32_t>(pos);
  }
  void ready_push(FlowId id, std::uint32_t slot);
  void ready_erase(std::uint32_t slot);
  void ready_sift_up(std::size_t pos);
  void ready_sift_down(std::size_t pos);

  std::uint32_t pool_alloc(Packet&& p);
  Packet pool_release(std::uint32_t node);
  void flow_push(std::uint32_t slot, FlowId id, Packet&& p);
  Packet flow_pop(std::uint32_t slot);

  Config config_;
  /// Paged id -> slot index over SoA per-flow fields.
  FlowMap<std::uint32_t> slot_of_;
  std::vector<TokenBucket> flow_bucket_;    // by slot
  std::vector<FlowFifo> flow_fifo_;         // by slot
  std::vector<std::uint32_t> free_slots_;
  std::vector<PacketNode> pool_;
  std::uint32_t pool_free_ = kNil;
  /// The ready-flow heap keeps the ascending-FlowId service order over the
  /// flows with queued packets (dequeue takes the top). It carries each
  /// flow's slot so the service path never pays a second index probe per
  /// packet.
  std::vector<ReadyFlow> ready_;
  std::vector<std::uint32_t> ready_pos_;  // by slot

  /// Hierarchical policing parent (Config::parent_rate_bps > 0).
  std::optional<TokenBucket> parent_;

  PacketFifo best_effort_{own_packet_pool()};
  PacketFifo control_{own_packet_pool()};
  std::size_t bytes_ = 0;
  std::size_t packets_ = 0;  // total across sub-queues; packets() is hot
};

/// Factory signature used by topology builders: makes the egress queue for
/// one direction of one link.
using QueueFactory = std::unique_ptr<Queue> (*)();

}  // namespace aqm::net
