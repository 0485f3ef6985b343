// End-to-end QoS policy: one declarative description covering both of the
// paper's paradigms. A policy can use either paradigm alone or combine
// them ("Ultimately, we suspect that priority- and reservation-based
// approaches will both have their place").
#pragma once

#include <cstdint>
#include <optional>

#include "common/time.hpp"
#include "net/dscp.hpp"
#include "net/packet.hpp"
#include "net/rsvp.hpp"
#include "obs/telemetry.hpp"
#include "orb/types.hpp"
#include "os/cpu.hpp"

namespace aqm::core {

/// Transport coalescing policy for the binding's flow: small messages
/// accumulate in the GIOP transport and ship as one wire write, flushed by
/// byte/count thresholds or the deadline — the flush policy is itself QoS
/// (a latency/efficiency trade), so it lives on the end-to-end policy and
/// is applied by QoSSession like priority and DSCP are.
struct OnewayBatchingPolicy {
  std::uint32_t max_bytes = 16 * 1024;
  std::uint32_t max_messages = 64;
  Duration flush_deadline = microseconds(500);

  friend bool operator==(const OnewayBatchingPolicy&, const OnewayBatchingPolicy&) = default;
};

struct EndToEndQosPolicy {
  /// Network flow id classifying the binding's traffic. Applied to the
  /// stub (and every invocation) by QoSSession / the QoS-policy
  /// interceptor; reservations require one.
  std::optional<net::FlowId> flow;

  // --- priority-based control (Sections 3.1, 3.2) ---------------------------
  /// CORBA priority for the binding (mapped to native thread priorities on
  /// both hosts via the priority-mapping managers).
  std::optional<orb::CorbaPriority> priority;
  /// Map the CORBA priority onto DiffServ codepoints (installs the banded
  /// DSCP mapping on the client ORB).
  bool map_priority_to_dscp = false;
  /// Explicit DSCP override via protocol properties (wins over the mapping).
  std::optional<net::Dscp> explicit_dscp;
  /// Per-invocation end-to-end deadline for the binding, stamped by the
  /// QoS-policy interceptor in establish (a caller-pinned InvokeOptions
  /// deadline wins). Rides the deadline service context; bounds retries
  /// and triggers server-side expiry drops like any other deadline.
  std::optional<Duration> deadline;

  // --- reservation-based control (Sections 3.3, 3.4) -----------------------
  /// CPU reserve to establish on the *server* host through the CORBA
  /// CPU-reservation manager.
  std::optional<os::ReserveSpec> server_cpu_reserve;
  /// RSVP/IntServ bandwidth reservation for the binding's flow.
  std::optional<net::FlowSpec> network_reservation;

  // --- transport batching (coalesced writes) --------------------------------
  /// Enables GIOP message coalescing on the binding's flow (requires
  /// `flow`). QoSSession installs it as the flow's GiopTransport batching
  /// policy, `flush_deadline` as its flush_delay.
  std::optional<OnewayBatchingPolicy> oneway_batching;

  // --- service-level objective (telemetry contract, DESIGN.md §12) ----------
  /// Windowed SLO for the binding's flow (requires `flow` and a
  /// TelemetryHub attached to the engine). QoSSession installs it on the
  /// hub's SloMonitor; breach/recovery transitions land in the health
  /// stream and cut flight-recorder dumps.
  std::optional<obs::SloSpec> slo;

  [[nodiscard]] bool uses_priorities() const {
    return priority.has_value() || map_priority_to_dscp || explicit_dscp.has_value();
  }
  [[nodiscard]] bool uses_reservations() const {
    return server_cpu_reserve.has_value() || network_reservation.has_value();
  }

  /// Memberwise equality: the re-stamp path (QoSSession::update and the
  /// control plane) diffs old-vs-new per mechanism and only touches the
  /// mechanisms whose parameters actually changed.
  friend bool operator==(const EndToEndQosPolicy&, const EndToEndQosPolicy&) = default;
};

}  // namespace aqm::core
