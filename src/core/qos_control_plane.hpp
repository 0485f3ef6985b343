// Runtime QoS control plane: a CORBA servant through which an external
// controller mutates live bindings mid-run — the EdgeRIC-style dynamic
// override channel (ROADMAP item 2) layered on the re-stampable session
// machinery. A controller sends override_flow(flow, partial-policy) and
// the control plane merges the engaged fields over the managed session's
// base policy and re-stamps it via QoSSession::apply — priority, DSCP,
// deadline, batching, CPU reserve size and network reservation all change
// on the live binding with no session restart and (for the per-invocation
// knobs) no allocation. clear_override restores the base policy the same
// way. Overrides compose with the FeedbackScheduler's re-stamps of the
// same reserves and reservations: whichever writes last wins per
// mechanism.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "common/result.hpp"
#include "core/qos_policy.hpp"
#include "core/qos_session.hpp"
#include "net/dscp.hpp"
#include "net/packet.hpp"
#include "orb/orb.hpp"

namespace aqm::core {

inline constexpr const char* kQosControlObjectId = "qos_control";
inline constexpr const char* kOverrideFlowOp = "override_flow";
inline constexpr const char* kClearOverrideOp = "clear_override";

/// Partial policy: only the engaged fields replace the managed session's
/// base-policy values; disengaged fields keep the base value. (The
/// EdgeRIC override grammar: override priority/deadline/rate per bearer,
/// clear restores the defaults.)
struct PolicyOverride {
  std::optional<orb::CorbaPriority> priority;
  std::optional<net::Dscp> dscp;
  std::optional<Duration> deadline;
  std::optional<os::ReserveSpec> server_cpu_reserve;
  std::optional<net::FlowSpec> network_reservation;
  std::optional<orb::BatchPolicy> oneway_batching;

  [[nodiscard]] bool any() const {
    return priority || dscp || deadline || server_cpu_reserve || network_reservation ||
           oneway_batching;
  }
  friend bool operator==(const PolicyOverride&, const PolicyOverride&) = default;
};

/// Merges the engaged override fields over `base`. Allocation-free: both
/// structs hold only scalars and optionals of scalars.
[[nodiscard]] EndToEndQosPolicy merge_override(const EndToEndQosPolicy& base,
                                               const PolicyOverride& ov);

/// Server half: owns the flow -> session registry and the CORBA servant.
class QosControlPlane {
 public:
  /// Activates the "qos_control" servant in `poa`. Local callers (QuO
  /// contract regions, the FeedbackScheduler, tests) may also invoke
  /// override_flow/clear_override directly — the servant is the same code
  /// path one RPC later.
  explicit QosControlPlane(orb::Poa& poa);
  QosControlPlane(const QosControlPlane&) = delete;
  QosControlPlane& operator=(const QosControlPlane&) = delete;

  [[nodiscard]] const orb::ObjectRef& ref() const { return ref_; }

  /// Places a session under control-plane management, keyed by the flow id
  /// controllers address it with. The session's active policy at this
  /// moment becomes the *base* policy overrides merge onto (and
  /// clear_override restores). The session must outlive its management.
  void manage(net::FlowId flow, QoSSession& session);
  void unmanage(net::FlowId flow);
  [[nodiscard]] bool manages(net::FlowId flow) const { return managed_.count(flow) > 0; }

  /// Applies a partial-policy override to the managed flow's live binding.
  /// Re-applying the same override is idempotent at every layer below. An
  /// override with a negative end-to-end deadline or batching flush
  /// deadline is rejected and leaves the live policy unchanged.
  Status<std::string> override_flow(net::FlowId flow, const PolicyOverride& ov);
  /// Restores the managed flow's base policy.
  Status<std::string> clear_override(net::FlowId flow);

  /// The active override for a flow, or nullptr when none (or unmanaged).
  [[nodiscard]] const PolicyOverride* active_override(net::FlowId flow) const;
  [[nodiscard]] std::uint64_t overrides_applied() const { return overrides_applied_; }

 private:
  struct Managed {
    QoSSession* session = nullptr;
    EndToEndQosPolicy base;
    PolicyOverride ov;
    bool overridden = false;
  };

  orb::ObjectRef ref_;
  std::map<net::FlowId, Managed> managed_;
  std::uint64_t overrides_applied_ = 0;
};

/// Remote controller client: typed async access to a host's control plane.
class QosControlClient {
 public:
  using Callback = std::function<void(Status<std::string>)>;

  QosControlClient(orb::OrbEndpoint& orb, orb::ObjectRef control);

  void override_flow(net::FlowId flow, const PolicyOverride& ov, Callback cb = nullptr,
                     Duration timeout = seconds(2));
  void clear_override(net::FlowId flow, Callback cb = nullptr,
                      Duration timeout = seconds(2));

 private:
  orb::ObjectStub stub_;
};

}  // namespace aqm::core
