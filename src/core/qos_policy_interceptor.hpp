// Client-side interceptor that applies EndToEndQosPolicy decisions to every
// invocation of a bound object reference — the per-invocation half of
// QoSSession.
//
// One instance is installed per client OrbEndpoint (find-or-install by
// name) and holds the per-binding policies, keyed by (target node, object
// key). In the establish phase it rewrites the invocation's QoS slots
// atomically: priority (unless the caller pinned one), DSCP (explicit
// override or a per-binding banded priority->DSCP mapping), and flow id.
// Reservations stay in QoSSession::apply — they are per-binding signaling,
// not per-invocation work.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_index.hpp"
#include "core/qos_policy.hpp"
#include "orb/interceptor.hpp"
#include "orb/rt/dscp_mapping.hpp"

namespace aqm::orb {
class OrbEndpoint;
}  // namespace aqm::orb

namespace aqm::core {

/// Versioned policy state of one live binding. Interceptor stages read the
/// *current* state per invocation — never captured constants — so a
/// control-plane re-stamp (QoSSession::update, QosControlPlane overrides)
/// takes effect on the very next invocation without rebinding. The version
/// counter increments on every re-stamp; tests and the control plane use
/// it to confirm a live update landed (and that an idempotent re-apply of
/// identical parameters still counts as a stamp, not a rebind).
struct QosBindingState {
  EndToEndQosPolicy policy;
  std::uint64_t version = 0;
};

class QosPolicyInterceptor final : public orb::ClientRequestInterceptor {
 public:
  static constexpr const char* kName = "core.qos_policy";

  [[nodiscard]] const char* name() const override { return kName; }

  /// Returns the endpoint's installed instance, registering one on first use.
  static QosPolicyInterceptor& install(orb::OrbEndpoint& orb);
  /// Returns the endpoint's instance, or nullptr when none was installed.
  [[nodiscard]] static QosPolicyInterceptor* find(orb::OrbEndpoint& orb);

  /// Binds (or re-stamps) the policy governing invocations of the given
  /// target reference. An existing binding is mutated in place — the
  /// version bumps, its state keeps its address, and the steady-state
  /// re-stamp path allocates nothing (EndToEndQosPolicy is allocation-free
  /// to copy).
  void bind(net::NodeId node, std::string object_key, EndToEndQosPolicy policy);
  /// Allocation-free re-stamp of an existing binding: returns false (and
  /// changes nothing) when the target has no binding, so callers that may
  /// race a teardown fall back to bind().
  bool rebind(net::NodeId node, std::string_view object_key,
              const EndToEndQosPolicy& policy);
  void unbind(net::NodeId node, std::string_view object_key);

  /// The bound policy for a target, or nullptr.
  [[nodiscard]] const EndToEndQosPolicy* binding(net::NodeId node,
                                                 std::string_view object_key) const;
  /// The versioned binding state for a target, or nullptr.
  [[nodiscard]] const QosBindingState* binding_state(net::NodeId node,
                                                     std::string_view object_key) const;
  /// The DSCP override this interceptor would stamp on an invocation of
  /// the target at `priority` (nullopt: fall through to the ORB mapping).
  [[nodiscard]] std::optional<net::Dscp> effective_dscp(net::NodeId node,
                                                        std::string_view object_key,
                                                        orb::CorbaPriority priority) const;

  orb::InterceptStatus establish(orb::ClientRequestContext& ctx) override;

 private:
  struct Binding {
    net::NodeId node = net::kInvalidNode;
    std::string object_key;
    QosBindingState state;
    /// Per-binding priority->DSCP bands (used iff policy.map_priority_to_dscp),
    /// so one binding's mapping never leaks onto other traffic of the ORB.
    orb::rt::BandedDscpMapping banded;
    /// Next binding whose (node, key hash) index key is the same.
    std::uint32_t next = kNoSlot;
  };

  /// (node, 64-bit hash of the object key): the index key of a target.
  [[nodiscard]] static Key128 index_key(net::NodeId node, std::string_view object_key);
  [[nodiscard]] const Binding* lookup(net::NodeId node, std::string_view object_key) const;
  [[nodiscard]] Binding* lookup_mut(net::NodeId node, std::string_view object_key);

  // The establish-phase lookup is one index probe plus one string compare
  // to confirm the key; it allocates nothing. Bindings are individually
  // allocated so a binding's state keeps its address for its lifetime;
  // targets whose index keys collide chain through Binding::next.
  FlatIndex<Key128> index_;
  std::vector<std::unique_ptr<Binding>> bindings_;
  std::vector<std::uint32_t> free_bindings_;
};

}  // namespace aqm::core
