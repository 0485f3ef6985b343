#include "core/qos_session.hpp"

#include <cassert>
#include <memory>
#include <utility>

#include "common/log.hpp"
#include "core/qos_policy_interceptor.hpp"
#include "obs/telemetry.hpp"

namespace aqm::core {

QoSSession::QoSSession(orb::OrbEndpoint& client_orb, orb::ObjectStub& stub,
                       NetworkQosManager* net_qos, CpuReservationClient* cpu_client)
    : client_orb_(client_orb), stub_(stub), net_qos_(net_qos), cpu_client_(cpu_client) {}

void QoSSession::request_network_reservation(const net::FlowSpec& spec) {
  const net::FlowId flow = stub_.flow();
  const net::NodeId src = client_orb_.node();
  ++pending_parts_;
  const std::uint64_t gen = generation_;
  net_qos_->reserve(flow, src, stub_.ref().node, spec,
                    [this, gen, flow, src](Status<std::string> status) {
                      if (gen != generation_) {
                        // The session was revoked or re-stamped while RSVP
                        // signaling was in flight: release the late
                        // reservation instead of recording it.
                        if (status.ok()) net_qos_->release(flow, src);
                        return;
                      }
                      network_reserved_ = status.ok();
                      if (status.ok()) reserved_flow_ = flow;
                      settle_part(std::move(status));
                    });
}

void QoSSession::request_cpu_reserve(const os::ReserveSpec& spec) {
  ++pending_parts_;
  const std::uint64_t gen = generation_;
  cpu_client_->create_reserve(spec, [this, gen](Result<os::ReserveId> result) {
    if (gen != generation_) {
      if (result.ok()) cpu_client_->destroy_reserve(result.value());
      return;
    }
    if (result.ok()) {
      cpu_reserve_ = result.value();
      settle_part({});
    } else {
      settle_part(Status<std::string>::err(result.error()));
    }
  });
}

void QoSSession::apply(EndToEndQosPolicy policy, ApplyCallback cb) {
  policy_ = std::move(policy);
  pending_cb_ = std::move(cb);
  errors_.clear();
  pending_parts_ = 1;  // sentinel for the synchronous part
  ++generation_;       // invalidates callbacks of any prior apply/update

  // --- synchronous, priority-based mechanisms -------------------------------
  // Priority, DSCP, deadline, and flow apply per-invocation through the
  // QoS-policy interceptor bound to this stub's target reference: one
  // atomic binding replaces the old scatter of stub/ORB mutations (and a
  // per-binding banded DSCP mapping no longer leaks onto the ORB's other
  // traffic).
  if (policy_.flow) stub_.set_flow(*policy_.flow);
  QosPolicyInterceptor::install(client_orb_)
      .bind(stub_.ref().node, stub_.ref().object_key, policy_);
  interceptor_bound_ = true;

  // Transport coalescing is flow-scoped wire behavior, applied directly to
  // the client transport.
  if (policy_.oneway_batching) {
    if (!policy_.flow) {
      errors_.emplace_back("oneway batching requires the binding to have a flow id");
    } else {
      orb::BatchPolicy batching;
      batching.enabled = true;
      batching.max_bytes = policy_.oneway_batching->max_bytes;
      batching.max_messages = policy_.oneway_batching->max_messages;
      batching.flush_delay = policy_.oneway_batching->flush_deadline;
      client_orb_.transport().set_flow_batching(*policy_.flow, batching);
      batching_applied_ = true;
      batching_flow_ = *policy_.flow;
    }
  }

  // SLO installation: declarative like the rest of the policy — the spec
  // lands on the engine's telemetry hub, which evaluates it on the flow's
  // sliding window from here on.
  if (policy_.slo) {
    if (!policy_.flow) {
      errors_.emplace_back("SLO monitoring requires the binding to have a flow id");
    } else if (obs::TelemetryHub* th = client_orb_.engine().telemetry()) {
      th->set_slo(*policy_.flow, *policy_.slo);
      slo_applied_ = true;
      slo_flow_ = *policy_.flow;
    } else {
      errors_.emplace_back("SLO monitoring requires a TelemetryHub on the engine");
    }
  }

  // --- asynchronous, reservation-based mechanisms ---------------------------
  if (policy_.network_reservation) {
    if (net_qos_ == nullptr) {
      errors_.emplace_back("network reservation requested without a NetworkQosManager");
    } else if (stub_.flow() == net::kNoFlow) {
      errors_.emplace_back("network reservation requires the binding to have a flow id");
    } else {
      request_network_reservation(*policy_.network_reservation);
    }
  }
  if (policy_.server_cpu_reserve) {
    if (cpu_client_ == nullptr) {
      errors_.emplace_back("CPU reserve requested without a CpuReservationClient");
    } else {
      request_cpu_reserve(*policy_.server_cpu_reserve);
    }
  }

  settle_part({});  // the synchronous sentinel
}

void QoSSession::update(EndToEndQosPolicy policy, ApplyCallback cb) {
  if (!interceptor_bound_) {
    // Nothing live to diff against: a first-time update is a full apply.
    apply(std::move(policy), std::move(cb));
    return;
  }
  pending_cb_ = std::move(cb);
  errors_.clear();
  pending_parts_ = 1;
  ++generation_;
  ++updates_applied_;

  const bool flow_changed = policy.flow != policy_.flow;
  if (flow_changed && policy.flow) stub_.set_flow(*policy.flow);

  // Priority / DSCP / deadline / flow: one in-place,
  // allocation-free re-stamp of the versioned binding state. Every later
  // invocation reads the new state; nothing is torn down or rebound.
  QosPolicyInterceptor::install(client_orb_)
      .rebind(stub_.ref().node, stub_.ref().object_key, policy);

  // Batching: untouched (no flush) unless the batching parameters or the
  // flow actually changed. A parameter change flushes the staged batch
  // under the old policy before staging under the new one.
  if (policy.oneway_batching != policy_.oneway_batching || flow_changed) {
    if (batching_applied_) {
      client_orb_.transport().clear_flow_batching(batching_flow_);  // flushes staged
      batching_applied_ = false;
    }
    if (policy.oneway_batching) {
      if (!policy.flow) {
        errors_.emplace_back("oneway batching requires the binding to have a flow id");
      } else {
        orb::BatchPolicy batching;
        batching.enabled = true;
        batching.max_bytes = policy.oneway_batching->max_bytes;
        batching.max_messages = policy.oneway_batching->max_messages;
        batching.flush_delay = policy.oneway_batching->flush_deadline;
        client_orb_.transport().set_flow_batching(*policy.flow, batching);
        batching_applied_ = true;
        batching_flow_ = *policy.flow;
      }
    }
  }

  // SLO: the hub's set_slo is an in-place respec for a monitored flow, so
  // an unchanged-flow SLO change keeps the window history.
  if (policy.slo != policy_.slo || flow_changed) {
    obs::TelemetryHub* th = client_orb_.engine().telemetry();
    if (slo_applied_ && (!policy.slo || !policy.flow || slo_flow_ != *policy.flow)) {
      if (th != nullptr) th->clear_slo(slo_flow_);
      slo_applied_ = false;
    }
    if (policy.slo) {
      if (!policy.flow) {
        errors_.emplace_back("SLO monitoring requires the binding to have a flow id");
      } else if (th != nullptr) {
        th->set_slo(*policy.flow, *policy.slo);
        slo_applied_ = true;
        slo_flow_ = *policy.flow;
      } else {
        errors_.emplace_back("SLO monitoring requires a TelemetryHub on the engine");
      }
    }
  }

  // Network reservation: renegotiate on the live flow (RSVP re-signals
  // with the new spec and each hop's admission replaces the old rate) only
  // when the spec or flow changed; drop it when the new policy has none.
  if (policy.network_reservation != policy_.network_reservation || flow_changed) {
    if (network_reserved_ && net_qos_ != nullptr &&
        (!policy.network_reservation || flow_changed)) {
      net_qos_->release(reserved_flow_, client_orb_.node());
      network_reserved_ = false;
    }
    if (policy.network_reservation) {
      if (net_qos_ == nullptr) {
        errors_.emplace_back("network reservation requested without a NetworkQosManager");
      } else if (stub_.flow() == net::kNoFlow) {
        errors_.emplace_back("network reservation requires the binding to have a flow id");
      } else {
        request_network_reservation(*policy.network_reservation);
      }
    }
  }

  // Server CPU reserve: an existing reserve resizes in place through the
  // manager's update operation — same reserve id, attached jobs stay
  // attached; created/destroyed only on presence transitions.
  if (policy.server_cpu_reserve != policy_.server_cpu_reserve) {
    if (!policy.server_cpu_reserve) {
      if (cpu_reserve_ && cpu_client_ != nullptr) {
        cpu_client_->destroy_reserve(*cpu_reserve_);
        cpu_reserve_.reset();
      }
    } else if (cpu_client_ == nullptr) {
      errors_.emplace_back("CPU reserve requested without a CpuReservationClient");
    } else if (cpu_reserve_) {
      ++pending_parts_;
      const std::uint64_t gen = generation_;
      cpu_client_->update_reserve(*cpu_reserve_, *policy.server_cpu_reserve,
                                  [this, gen](Status<std::string> status) {
                                    if (gen != generation_) return;
                                    settle_part(std::move(status));
                                  });
    } else {
      request_cpu_reserve(*policy.server_cpu_reserve);
    }
  }

  policy_ = std::move(policy);
  settle_part({});
}

void QoSSession::settle_part(Status<std::string> status) {
  if (!status.ok()) errors_.push_back(status.error());
  assert(pending_parts_ > 0);
  if (--pending_parts_ > 0) return;
  if (!pending_cb_) return;
  auto cb = std::move(pending_cb_);
  pending_cb_ = nullptr;
  if (errors_.empty()) {
    cb({});
    return;
  }
  std::string combined;
  for (const auto& e : errors_) {
    if (!combined.empty()) combined += "; ";
    combined += e;
  }
  cb(Status<std::string>::err(combined));
}

void QoSSession::revoke() {
  // Invalidate in-flight signaling first: late callbacks release what they
  // acquired instead of resurrecting state on a revoked session.
  ++generation_;
  pending_cb_ = nullptr;
  pending_parts_ = 0;
  if (network_reserved_ && net_qos_ != nullptr) {
    net_qos_->release(reserved_flow_, client_orb_.node());
    network_reserved_ = false;
  }
  if (cpu_reserve_ && cpu_client_ != nullptr) {
    cpu_client_->destroy_reserve(*cpu_reserve_);
    cpu_reserve_.reset();
  }
  if (interceptor_bound_) {
    if (QosPolicyInterceptor* icpt = QosPolicyInterceptor::find(client_orb_)) {
      icpt->unbind(stub_.ref().node, stub_.ref().object_key);
    }
    interceptor_bound_ = false;
  }
  if (batching_applied_) {
    // Flushes anything still staged, then drops the override.
    client_orb_.transport().clear_flow_batching(batching_flow_);
    batching_applied_ = false;
  }
  if (slo_applied_) {
    if (obs::TelemetryHub* th = client_orb_.engine().telemetry()) {
      th->clear_slo(slo_flow_);
    }
    slo_applied_ = false;
  }
  policy_ = EndToEndQosPolicy{};
}

}  // namespace aqm::core
