// Receiver-side measurement: per-flow latency series and delivery counts.
// Installs itself as the node's receiver, chaining any receiver that was
// already attached as its downstream (so it taps, never replaces); an
// explicit set_downstream overrides that default.
//
// Besides latency, the monitor maintains the receiver-side quality signals
// the paper's streaming experiments care about: inter-arrival statistics,
// an RFC 3550-style smoothed jitter estimate, and (via the Network's
// per-flow counters) drops. export_metrics() dumps everything into a
// MetricsRegistry for the per-trial JSON sidecar.
#pragma once

#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "net/flow_table.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace aqm::net {

class FlowMonitor {
 public:
  FlowMonitor(Network& net, NodeId node);

  /// Forwards every received packet to `fn` after recording stats.
  void set_downstream(Network::ReceiverFn fn) { downstream_ = std::move(fn); }

  [[nodiscard]] const TimeSeries& latency_series(FlowId flow) const;
  [[nodiscard]] std::uint64_t received(FlowId flow) const;
  [[nodiscard]] std::uint64_t received_bytes(FlowId flow) const;
  /// Gaps observed in the flow's sequence numbers (arrival-order estimate).
  [[nodiscard]] std::uint64_t sequence_gaps(FlowId flow) const;
  /// Network-wide drops for the flow (queue/AQM discards at any hop).
  [[nodiscard]] std::uint64_t dropped(FlowId flow) const;
  /// Inter-arrival gap statistics (ms) between consecutive packets.
  [[nodiscard]] const RunningStats& interarrival_ms(FlowId flow) const;
  /// RFC 3550 §6.4.1 smoothed inter-arrival jitter estimate (ms):
  /// J += (|D| - J) / 16, where D is the transit-time delta between
  /// consecutive packets. 0 until two packets have arrived.
  [[nodiscard]] double jitter_ms(FlowId flow) const;

  /// Sorted snapshot of the observed FlowIds (ascending). This is the ONLY
  /// iteration surface the monitor offers: the backing table keeps its
  /// pages in no particular order, so consumers that enumerate flows
  /// (metrics export, experiment tables) go through this to stay
  /// deterministic and --jobs-invariant.
  [[nodiscard]] std::vector<FlowId> observed_flows() const { return flows_.sorted_ids(); }

  /// Dumps per-flow counters and stats into a registry as
  /// "<prefix>.flow<id>.received", ".dropped", ".latency_ms", etc.
  /// Emission is in ascending FlowId order (via observed_flows()).
  void export_metrics(obs::MetricsRegistry& reg, std::string_view prefix) const;

  void clear();

 private:
  struct PerFlow {
    TimeSeries latency_ms;
    RunningStats interarrival_ms;
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    std::uint64_t gaps = 0;
    std::uint64_t next_seq = 0;
    bool seen = false;
    double jitter_ms = 0.0;
    double last_arrival_ms = 0.0;
    double last_transit_ms = 0.0;
  };

  Network& net_;
  /// Paged flat table (DESIGN.md §10): the per-packet receiver does one
  /// directory probe instead of an O(log n) tree walk at high fan-in.
  FlowMap<PerFlow> flows_;
  Network::ReceiverFn downstream_;
  TimeSeries empty_series_;
  RunningStats empty_stats_;
};

}  // namespace aqm::net
