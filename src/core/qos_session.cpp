#include "core/qos_session.hpp"

#include <cassert>
#include <utility>

#include "obs/telemetry.hpp"
#include "orb/rt/dscp_mapping.hpp"

namespace aqm::core {
namespace {

/// The DSCP a policy pins on its binding: the explicit override, else the
/// banded mapping of the policy's priority, else none (the ORB's mapping
/// decides).
std::optional<net::Dscp> binding_dscp(const EndToEndQosPolicy& policy) {
  if (policy.explicit_dscp) return policy.explicit_dscp;
  if (policy.map_priority_to_dscp && policy.priority) {
    return orb::rt::DscpMapping::banded().to_dscp(*policy.priority);
  }
  return std::nullopt;
}

/// The deadline a policy writes to the stub: none when it is negative
/// (apply reports that as an error), since every call would start past it.
std::optional<Duration> stub_deadline(const EndToEndQosPolicy& policy) {
  if (policy.deadline && *policy.deadline < Duration::zero()) return std::nullopt;
  return policy.deadline;
}

}  // namespace

QoSSession::QoSSession(orb::OrbEndpoint& client_orb, orb::ObjectStub& stub,
                       NetworkQosManager* net_qos, CpuReservationClient* cpu_client)
    : client_orb_(client_orb), stub_(stub), net_qos_(net_qos), cpu_client_(cpu_client) {}

void QoSSession::apply(EndToEndQosPolicy policy, ApplyCallback cb) {
  pending_cb_ = std::move(cb);
  errors_.clear();
  pending_parts_ = 1;  // sentinel for the synchronous part
  if (policy.map_priority_to_dscp && !policy.priority) {
    errors_.emplace_back("banded DSCP mapping requires a priority");
  }
  if (policy.deadline && *policy.deadline < Duration::zero()) {
    errors_.emplace_back("end-to-end deadline must not be negative");
  }
  const bool flow_changed = policy.flow != policy_.flow;
  write_stub(policy);
  apply_batching(policy, flow_changed);
  apply_slo(policy, flow_changed);
  apply_network_reservation(policy, flow_changed);
  apply_cpu_reserve(policy);
  policy_ = std::move(policy);
  settle_part({});  // the synchronous sentinel
}

void QoSSession::write_stub(const EndToEndQosPolicy& next) {
  // Plain writes of the knobs every invocation through the stub carries:
  // allocation-free, and nothing to look up per call.
  if (next.flow != policy_.flow) stub_.set_flow(next.flow.value_or(net::kNoFlow));
  if (next.priority != policy_.priority) {
    if (next.priority) {
      stub_.set_priority(*next.priority);
    } else {
      stub_.clear_priority();
    }
  }
  const std::optional<Duration> deadline = stub_deadline(next);
  if (deadline != stub_deadline(policy_)) {
    if (deadline) {
      stub_.set_deadline(*deadline);
    } else {
      stub_.clear_deadline();
    }
  }
  const std::optional<net::Dscp> dscp = binding_dscp(next);
  if (dscp != binding_dscp(policy_)) stub_.ref().protocol.dscp = dscp;
}

void QoSSession::apply_batching(const EndToEndQosPolicy& next, bool flow_changed) {
  // Transport coalescing is flow-scoped wire behavior, applied directly to
  // the client transport. A change flushes the batch staged under the old
  // policy before staging under the new one.
  if (next.oneway_batching == policy_.oneway_batching && !flow_changed &&
      batching_applied_ == next.oneway_batching.has_value()) {
    return;
  }
  if (batching_applied_) {
    client_orb_.transport().clear_flow_batching(batching_flow_);  // flushes staged
    batching_applied_ = false;
  }
  if (!next.oneway_batching) return;
  if (!next.flow) {
    errors_.emplace_back("oneway batching requires the binding to have a flow id");
    return;
  }
  if (next.oneway_batching->flush_delay < Duration::zero()) {
    // A negative flush delay would schedule the batch flush in the past.
    errors_.emplace_back("oneway batching flush deadline must not be negative");
    return;
  }
  client_orb_.transport().set_flow_batching(*next.flow, *next.oneway_batching);
  batching_applied_ = true;
  batching_flow_ = *next.flow;
}

void QoSSession::apply_slo(const EndToEndQosPolicy& next, bool flow_changed) {
  // The spec lands on the engine's telemetry hub, which evaluates it on
  // the flow's sliding window from here on. set_slo is an in-place respec
  // for a monitored flow, so an unchanged-flow SLO change keeps the window
  // history.
  if (next.slo == policy_.slo && !flow_changed && slo_applied_ == next.slo.has_value()) {
    return;
  }
  obs::TelemetryHub* th = client_orb_.engine().telemetry();
  if (slo_applied_ && (!next.slo || !next.flow || slo_flow_ != *next.flow)) {
    if (th != nullptr) th->clear_slo(slo_flow_);
    slo_applied_ = false;
  }
  if (!next.slo) return;
  if (!next.flow) {
    errors_.emplace_back("SLO monitoring requires the binding to have a flow id");
  } else if (th == nullptr) {
    errors_.emplace_back("SLO monitoring requires a TelemetryHub on the engine");
  } else {
    th->set_slo(*next.flow, *next.slo);
    slo_applied_ = true;
    slo_flow_ = *next.flow;
  }
}

void QoSSession::apply_network_reservation(const EndToEndQosPolicy& next,
                                           bool flow_changed) {
  // Unchanged only while the reservation is held or still being signaled:
  // one that failed is signaled again.
  const bool held = network_reserved_ || network_request_ != 0;
  if (next.network_reservation == policy_.network_reservation && !flow_changed &&
      held == next.network_reservation.has_value()) {
    if (network_request_ != 0) ++pending_parts_;  // still in flight: wait for it too
    return;
  }
  // A changed spec on the same flow renegotiates in place (RSVP re-signals
  // and each hop's admission replaces the old rate); a dropped
  // reservation or a new flow releases the old one first.
  if (network_reserved_ && (!next.network_reservation || flow_changed)) {
    net_qos_->release(reserved_flow_, client_orb_.node());
    network_reserved_ = false;
  }
  network_request_ = 0;  // supersedes a request still in flight
  if (!next.network_reservation) return;
  if (net_qos_ == nullptr) {
    errors_.emplace_back("network reservation requested without a NetworkQosManager");
  } else if (stub_.flow() == net::kNoFlow) {
    errors_.emplace_back("network reservation requires the binding to have a flow id");
  } else {
    request_network_reservation(*next.network_reservation);
  }
}

void QoSSession::apply_cpu_reserve(const EndToEndQosPolicy& next) {
  // Unchanged only while the reserve is still being requested or is held
  // at the policy's spec: a failed create or resize is requested again.
  if (next.server_cpu_reserve == policy_.server_cpu_reserve &&
      (cpu_request_ != 0 || cpu_reserved_spec_ == next.server_cpu_reserve)) {
    if (cpu_request_ != 0) ++pending_parts_;  // still in flight: wait for it too
    return;
  }
  cpu_request_ = 0;  // supersedes a request still in flight
  if (!next.server_cpu_reserve) {
    if (cpu_reserve_) {
      cpu_client_->destroy_reserve(*cpu_reserve_);
      cpu_reserve_.reset();
      cpu_reserved_spec_.reset();
    }
    return;
  }
  if (cpu_client_ == nullptr) {
    errors_.emplace_back("CPU reserve requested without a CpuReservationClient");
  } else {
    request_cpu_reserve(*next.server_cpu_reserve);
  }
}

void QoSSession::request_network_reservation(const net::FlowSpec& spec) {
  const net::FlowId flow = stub_.flow();
  const net::NodeId src = client_orb_.node();
  ++pending_parts_;
  const std::uint64_t ticket = network_request_ = ++last_ticket_;
  reserved_flow_ = flow;
  net_qos_->reserve(flow, src, stub_.ref().node, spec,
                    [this, ticket, flow, src](Status<std::string> status) {
                      if (ticket != network_request_) {
                        // Superseded while signaling was in flight: release
                        // the late reservation unless the session now holds
                        // or requests one on the same flow, which replaced it.
                        const bool still_wanted =
                            (network_reserved_ || network_request_ != 0) &&
                            reserved_flow_ == flow;
                        if (status.ok() && !still_wanted) net_qos_->release(flow, src);
                        return;
                      }
                      network_request_ = 0;
                      network_reserved_ = status.ok();
                      settle_part(std::move(status));
                    });
}

void QoSSession::request_cpu_reserve(const os::ReserveSpec& spec) {
  ++pending_parts_;
  const std::uint64_t ticket = cpu_request_ = ++last_ticket_;
  if (cpu_reserve_) {
    // Resize in place: same reserve id, attached jobs stay attached.
    cpu_client_->update_reserve(*cpu_reserve_, spec,
                                [this, ticket, spec](Status<std::string> status) {
                                  if (ticket != cpu_request_) return;
                                  cpu_request_ = 0;
                                  if (status.ok()) cpu_reserved_spec_ = spec;
                                  settle_part(std::move(status));
                                });
    return;
  }
  cpu_client_->create_reserve(spec, [this, ticket, spec](Result<os::ReserveId> result) {
    if (ticket != cpu_request_) {
      if (result.ok()) cpu_client_->destroy_reserve(result.value());
      return;
    }
    cpu_request_ = 0;
    if (result.ok()) {
      cpu_reserve_ = result.value();
      cpu_reserved_spec_ = spec;
      settle_part({});
    } else {
      settle_part(Status<std::string>::err(result.error()));
    }
  });
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

}  // namespace aqm::core
