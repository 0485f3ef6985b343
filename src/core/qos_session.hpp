// QoSSession: applies an EndToEndQosPolicy to one client->object binding,
// coordinating all four mechanisms (thread priorities, DSCPs, CPU
// reserves, RSVP reservations) from the middleware's end-to-end vantage
// point. This is the integration layer the paper contributes.
//
// The binding is the stub: the per-invocation knobs (flow, priority,
// deadline, DSCP) are written onto the session's ObjectStub, the DSCP as
// the reference's protocol property, so every invocation through that
// stub carries them with no lookup. apply() is the one path for the first
// application and for every live re-stamp: it diffs the new policy
// against the active one and touches only the mechanisms whose parameters
// changed. Priority/DSCP/deadline/flow are plain stub writes, batching is
// flushed and re-staged, an existing CPU reserve resizes without
// detach-reattach, and a network reservation renegotiates on the live flow
// (RSVP modify). The session tracks which stages actually applied, so
// revoke() after a partial failure (or while signaling is still in
// flight) releases exactly what exists and nothing else.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "core/cpu_reservation_manager.hpp"
#include "core/network_qos_manager.hpp"
#include "core/qos_policy.hpp"
#include "orb/orb.hpp"

namespace aqm::core {

class QoSSession {
 public:
  using ApplyCallback = std::function<void(Status<std::string>)>;

  /// `stub` is the client-side binding the policy governs; it must outlive
  /// the session. `net_qos` is required for network reservations,
  /// `cpu_client` for server CPU reserves.
  QoSSession(orb::OrbEndpoint& client_orb, orb::ObjectStub& stub,
             NetworkQosManager* net_qos = nullptr,
             CpuReservationClient* cpu_client = nullptr);

  /// Makes `policy` the active policy. Diffs it against the active one
  /// (empty before the first apply) and applies only the delta, so
  /// re-applying the active policy is a no-op for every mechanism that
  /// took effect or is still being signaled; one that failed (RSVP
  /// admission refused, a CPU reserve denied, a batching or SLO stage
  /// without a flow) is applied again and reports its error again:
  ///  - each engaged stub knob that changed is written to the stub (a
  ///    banded DSCP mapping stores the DSCP of the policy's priority);
  ///    one the session wrote earlier that the policy now leaves
  ///    disengaged is cleared, and knobs the policy never engages are left
  ///    to whoever set them;
  ///  - batching, SLO, RSVP reservation and CPU reserve, in that order,
  ///    are installed, changed in place or released as the diff requires.
  /// The callback fires once every asynchronous mechanism this apply
  /// signaled (or one still in flight from an earlier apply) settles;
  /// partial failures are reported with the combined error text while
  /// successful mechanisms stay in force.
  void apply(EndToEndQosPolicy policy, ApplyCallback cb = nullptr);

  /// Releases what actually applied and restores best-effort defaults.
  /// Safe after a partial apply failure: only the stages that took effect
  /// are torn down, and asynchronous reservations still in flight are
  /// released the moment they land instead of leaking. The stub knobs the
  /// session wrote are reset to unset, not to the values the stub held
  /// before the session wrote them.
  void revoke() { apply(EndToEndQosPolicy{}); }

  [[nodiscard]] const EndToEndQosPolicy& active_policy() const { return policy_; }
  [[nodiscard]] bool network_reserved() const { return network_reserved_; }
  [[nodiscard]] std::optional<os::ReserveId> cpu_reserve_id() const { return cpu_reserve_; }

 private:
  void write_stub(const EndToEndQosPolicy& next);
  void apply_batching(const EndToEndQosPolicy& next, bool flow_changed);
  void apply_slo(const EndToEndQosPolicy& next, bool flow_changed);
  void apply_network_reservation(const EndToEndQosPolicy& next, bool flow_changed);
  void apply_cpu_reserve(const EndToEndQosPolicy& next);
  void request_network_reservation(const net::FlowSpec& spec);
  void request_cpu_reserve(const os::ReserveSpec& spec);
  void settle_part(Status<std::string> status);

  orb::OrbEndpoint& client_orb_;
  orb::ObjectStub& stub_;
  NetworkQosManager* net_qos_;
  CpuReservationClient* cpu_client_;

  EndToEndQosPolicy policy_;
  ApplyCallback pending_cb_;
  int pending_parts_ = 0;
  std::vector<std::string> errors_;

  // --- applied-stage ledger --------------------------------------------------
  // Teardown consults these, never the policy: a stage that failed to
  // apply (or was never requested) is not torn down, and a stage applied
  // under an earlier flow id is torn down under that id even if the policy
  // moved on. The diff consults them too: a mechanism counts as unchanged
  // only if the policy is unchanged and the ledger shows it in force (or
  // in flight), so a failed stage is retried by the next apply.
  bool network_reserved_ = false;
  std::optional<os::ReserveId> cpu_reserve_;
  /// Spec the held reserve was last admitted at (unset without a reserve).
  std::optional<os::ReserveSpec> cpu_reserved_spec_;
  bool batching_applied_ = false;
  bool slo_applied_ = false;
  /// Flow of the held or requested reservation.
  net::FlowId reserved_flow_ = net::kNoFlow;
  net::FlowId batching_flow_ = net::kNoFlow;
  net::FlowId slo_flow_ = net::kNoFlow;
  /// Ticket of the reservation / reserve request in flight (0: none).
  /// A callback whose ticket no longer matches was superseded by a later
  /// apply that changed or dropped the mechanism: it releases what it
  /// acquired instead of recording it, so re-stamping or revoking during
  /// in-flight signaling never leaks.
  std::uint64_t network_request_ = 0;
  std::uint64_t cpu_request_ = 0;
  std::uint64_t last_ticket_ = 0;
};

}  // namespace aqm::core
