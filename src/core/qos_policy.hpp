// End-to-end QoS policy: one declarative description covering both of the
// paper's paradigms. A policy can use either paradigm alone or combine
// them ("Ultimately, we suspect that priority- and reservation-based
// approaches will both have their place").
//
// QoSSession applies it to one binding. The per-invocation fields (flow,
// priority, DSCP, deadline) become values on the binding's ObjectStub;
// the rest installs per-flow transport, telemetry, network and server CPU
// state. Every field is optional: a disengaged field leaves the
// corresponding mechanism alone.
#pragma once

#include <cstdint>
#include <optional>

#include "common/time.hpp"
#include "net/dscp.hpp"
#include "net/packet.hpp"
#include "net/rsvp.hpp"
#include "obs/telemetry.hpp"
#include "orb/transport.hpp"
#include "orb/types.hpp"
#include "os/cpu.hpp"

namespace aqm::core {

/// Older name of orb::BatchPolicy, {max_bytes, max_messages, flush_delay},
/// kept for callers that still spell it.
using OnewayBatchingPolicy = orb::BatchPolicy;

struct EndToEndQosPolicy {
  /// Network flow id classifying the binding's traffic, written to the
  /// stub. Reservations, batching and SLOs require one.
  std::optional<net::FlowId> flow;

  // --- priority-based control (Sections 3.1, 3.2) ---------------------------
  /// CORBA priority for the binding, written to the stub (mapped to native
  /// thread priorities on both hosts via the priority-mapping managers).
  std::optional<orb::CorbaPriority> priority;
  /// Map the CORBA priority onto DiffServ codepoints: the binding's DSCP
  /// protocol property becomes the banded mapping of `priority` (which
  /// must then be set), without touching the ORB's mapping for its other
  /// traffic.
  bool map_priority_to_dscp = false;
  /// Explicit DSCP for the binding's DSCP protocol property (wins over the
  /// mapping).
  std::optional<net::Dscp> explicit_dscp;
  /// Per-invocation end-to-end deadline for the binding, written to the
  /// stub. Rides the deadline service context; bounds retries and
  /// triggers server-side expiry drops like any other deadline. A negative
  /// deadline is an apply error and leaves the stub without one.
  std::optional<Duration> deadline;

  // --- reservation-based control (Sections 3.3, 3.4) -----------------------
  /// CPU reserve to establish on the *server* host through the CORBA
  /// CPU-reservation manager.
  std::optional<os::ReserveSpec> server_cpu_reserve;
  /// RSVP/IntServ bandwidth reservation for the binding's flow.
  std::optional<net::FlowSpec> network_reservation;

  // --- transport batching (coalesced writes) --------------------------------
  /// Enables GIOP message coalescing on the binding's flow (requires
  /// `flow` and a non-negative flush_delay). QoSSession installs it as the
  /// flow's batching policy on the client's GiopTransport.
  std::optional<orb::BatchPolicy> oneway_batching;

  // --- service-level objective (telemetry contract, DESIGN.md §12) ----------
  /// Windowed SLO for the binding's flow (requires `flow` and a
  /// TelemetryHub attached to the engine). QoSSession installs it on the
  /// hub's SloMonitor; breach/recovery transitions land in the health
  /// stream and cut flight-recorder dumps.
  std::optional<obs::SloSpec> slo;

  /// Memberwise equality: QoSSession::apply diffs old-vs-new per
  /// mechanism and only touches the mechanisms whose parameters actually
  /// changed.
  friend bool operator==(const EndToEndQosPolicy&, const EndToEndQosPolicy&) = default;
};

}  // namespace aqm::core
