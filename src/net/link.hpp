// A unidirectional link: an egress queue plus a serializing transmitter
// with fixed bandwidth and propagation delay.
//
// The transmitter is "virtual": instead of a dedicated end-of-serialization
// event per packet, the link tracks avail_at_ (the instant the transmitter
// frees) and advances the service loop lazily — from send() before each
// new arrival becomes visible, and from the delivery/drop events it
// already schedules anyway. Service decisions that logically happened in
// the past are replayed at their exact original instants (the queue
// provably did not change in between, because every arrival and every
// reservation teardown catches up first, and dequeue reads no clock), so
// dequeue order and delivery times are exactly those of a
// store-and-forward transmitter with one event per stage, while steady
// state costs ~1 engine event per packet per hop instead of ~2. Committed
// packets wait in an in-flight FIFO; the delivery event captures only the
// link and pops the front, which is safe because delivery instants never
// decrease in commit order and the engine fires ties in scheduling order.
// The event fits the engine's inline handler buffer and the FIFO draws
// from the network's packet arena, so a hop costs no heap allocation
// (DESIGN.md §10). tests/test_link_diff checks the timing packet for
// packet against a one-event-per-stage store-and-forward reference model
// that lives with the tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/time.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/engine.hpp"

namespace aqm::net {

struct LinkConfig {
  double bandwidth_bps = 10e6;       // 10 Mbps, the paper's bottleneck segment
  Duration propagation = microseconds(100);
  /// Fraction of bandwidth RSVP admission control may hand out.
  double reservable_fraction = 0.9;
};

class Link {
 public:
  using DeliveryFn = std::function<void(Packet&&)>;
  using DropFn = std::function<void(const Packet&)>;

  Link(sim::Engine& engine, NodeId from, NodeId to, LinkConfig config,
       std::unique_ptr<Queue> queue);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  [[nodiscard]] NodeId from() const { return from_; }
  [[nodiscard]] NodeId to() const { return to_; }
  [[nodiscard]] const LinkConfig& config() const { return config_; }
  [[nodiscard]] Queue& queue() { return *queue_; }
  [[nodiscard]] const Queue& queue() const { return *queue_; }

  /// Moves the egress queue's and the in-flight FIFO's packets onto
  /// `pool` (Network::add_link hands over the network's shared arena).
  void bind_packet_pool(PacketChunkPool& pool) {
    queue_->bind_packet_pool(pool);
    in_flight_.bind(pool);
  }

  /// Wired by the Network: called when a packet finishes propagation.
  void set_delivery(DeliveryFn fn) { deliver_ = std::move(fn); }
  /// Wired by the Network: called when the egress queue drops a packet,
  /// at enqueue or later (Queue::set_drop_sink).
  void set_drop_hook(DropFn fn) { on_drop_ = std::move(fn); }

  /// Offers a packet to the egress queue and kicks the transmitter.
  void send(Packet p);

  /// Replays every service decision a store-and-forward transmitter would
  /// have made up to now. send() runs it first; anything else that changes
  /// which packet the queue yields next (a reservation teardown) must too.
  void pump();

  /// Serialization time of a packet of the given size on this link.
  [[nodiscard]] Duration transmission_time(std::uint32_t bytes) const;

  /// Observability: label for this link's trace lane (set by the Network
  /// with node names; defaults to numeric ids). The engine's recorder is
  /// resolved lazily at each instrumentation point, so a tracer attached
  /// after topology construction still sees every hop.
  void set_trace_name(std::string name) {
    trace_name_ = std::move(name);
    trace_bound_ = 0;  // re-resolve lane under the new name
  }

  [[nodiscard]] std::uint64_t packets_transmitted() const { return tx_packets_; }
  [[nodiscard]] std::uint64_t bytes_transmitted() const { return tx_bytes_; }
  /// Fraction of elapsed time the transmitter has been busy.
  [[nodiscard]] double utilization() const;

 private:
  // --- virtual transmitter ---
  void service(TimePoint t);
  void start_tx(Packet p, TimePoint t);
  // --- observability ---
  /// Engine recorder iff net tracing is on; binds the lane on first use.
  [[nodiscard]] obs::TraceRecorder* net_tracer();
  void trace_qlen(obs::TraceRecorder* tr, TimePoint t);
  /// Traces a queue drop on the link's lane and reports it to the hook.
  void report_drop(obs::TraceRecorder* tr, const Packet& p);
  /// Engine telemetry hub; hands the queue discipline the same pointer
  /// when it changes (one compare per send, like the tracer binding).
  [[nodiscard]] obs::TelemetryHub* net_telemetry();

  sim::Engine& engine_;
  NodeId from_;
  NodeId to_;
  LinkConfig config_;
  std::unique_ptr<Queue> queue_;
  DeliveryFn deliver_;
  DropFn on_drop_;

  /// Instant the transmitter frees (end of the last committed
  /// transmission). decision_pending_ means the service decision due at
  /// that instant has not been replayed yet.
  TimePoint avail_at_ = TimePoint::zero();
  bool decision_pending_ = false;
  /// Committed packets awaiting their delivery event, in
  /// commit (= delivery) order. Declared after queue_, so it
  /// returns its chunks before a private pool goes away.
  PacketFifo in_flight_{queue_->own_packet_pool()};
  std::uint64_t tx_packets_ = 0;
  std::uint64_t tx_bytes_ = 0;
  std::int64_t busy_ns_ = 0;

  std::string trace_name_;
  std::uint64_t trace_bound_ = 0;  // uid of the recorder the lane is bound to
  obs::TelemetryHub* telemetry_bound_ = nullptr;  // hub the queue was handed
  std::uint16_t trace_track_ = 0;
  const char* qlen_name_ = nullptr;  // interned "qlen <link>" counter label
};

}  // namespace aqm::net
