#include "core/qos_control_plane.hpp"

#include <memory>
#include <utility>

#include "orb/cdr.hpp"
#include "orb/servant.hpp"

namespace aqm::core {
namespace {

void encode_override(orb::CdrWriter& w, const PolicyOverride& ov) {
  w.write_bool(ov.priority.has_value());
  if (ov.priority) w.write_i32(*ov.priority);
  w.write_bool(ov.dscp.has_value());
  if (ov.dscp) w.write_u8(*ov.dscp);
  w.write_bool(ov.deadline.has_value());
  if (ov.deadline) w.write_i64(ov.deadline->ns());
  w.write_bool(ov.server_cpu_reserve.has_value());
  if (ov.server_cpu_reserve) write_reserve_spec(w, *ov.server_cpu_reserve);
  w.write_bool(ov.network_reservation.has_value());
  if (ov.network_reservation) {
    w.write_f64(ov.network_reservation->rate_bps);
    w.write_u32(ov.network_reservation->bucket_bytes);
  }
  w.write_bool(ov.oneway_batching.has_value());
  if (ov.oneway_batching) {
    w.write_u32(ov.oneway_batching->max_bytes);
    w.write_u32(ov.oneway_batching->max_messages);
    w.write_i64(ov.oneway_batching->flush_delay.ns());
  }
}

PolicyOverride decode_override(orb::CdrReader& r) {
  PolicyOverride ov;
  if (r.read_bool()) ov.priority = r.read_i32();
  if (r.read_bool()) ov.dscp = r.read_u8();
  if (r.read_bool()) ov.deadline = Duration{r.read_i64()};
  if (r.read_bool()) ov.server_cpu_reserve = read_reserve_spec(r);
  if (r.read_bool()) {
    net::FlowSpec spec;
    spec.rate_bps = r.read_f64();
    spec.bucket_bytes = r.read_u32();
    ov.network_reservation = spec;
  }
  if (r.read_bool()) {
    orb::BatchPolicy batching;
    batching.max_bytes = r.read_u32();
    batching.max_messages = r.read_u32();
    batching.flush_delay = Duration{r.read_i64()};
    ov.oneway_batching = batching;
  }
  return ov;
}

}  // namespace

EndToEndQosPolicy merge_override(const EndToEndQosPolicy& base, const PolicyOverride& ov) {
  EndToEndQosPolicy merged = base;
  if (ov.priority) merged.priority = *ov.priority;
  if (ov.dscp) merged.explicit_dscp = *ov.dscp;
  if (ov.deadline) merged.deadline = *ov.deadline;
  if (ov.server_cpu_reserve) merged.server_cpu_reserve = *ov.server_cpu_reserve;
  if (ov.network_reservation) merged.network_reservation = *ov.network_reservation;
  if (ov.oneway_batching) merged.oneway_batching = *ov.oneway_batching;
  return merged;
}

QosControlPlane::QosControlPlane(orb::Poa& poa) {
  // Override signaling is control-plane work: cheap and fast, like the
  // CPU-reservation manager it sits beside.
  auto servant = std::make_shared<orb::FunctionServant>(
      microseconds(30), [this](orb::ServerRequest& req) {
        orb::CdrReader r(req.body);
        if (req.operation == kOverrideFlowOp) {
          const net::FlowId flow = r.read_u64();
          const PolicyOverride ov = decode_override(r);
          req.reply_body = encode_status_reply(override_flow(flow, ov));
          return;
        }
        if (req.operation == kClearOverrideOp) {
          req.reply_body = encode_status_reply(clear_override(r.read_u64()));
          return;
        }
        throw orb::BadParam("unknown control-plane operation: " + req.operation);
      });
  ref_ = poa.activate_object(kQosControlObjectId, std::move(servant));
}

void QosControlPlane::manage(net::FlowId flow, QoSSession& session) {
  Managed m;
  m.session = &session;
  m.base = session.active_policy();
  managed_.insert_or_assign(flow, std::move(m));
}

void QosControlPlane::unmanage(net::FlowId flow) { managed_.erase(flow); }

Status<std::string> QosControlPlane::override_flow(net::FlowId flow,
                                                   const PolicyOverride& ov) {
  const auto it = managed_.find(flow);
  if (it == managed_.end()) {
    return Status<std::string>::err("flow is not under control-plane management");
  }
  // Negative delays are refused before the merge, so the live policy stays
  // untouched (the session would refuse them too, but only after replacing
  // the policy).
  if (ov.deadline && *ov.deadline < Duration::zero()) {
    return Status<std::string>::err("end-to-end deadline must not be negative");
  }
  if (ov.oneway_batching && ov.oneway_batching->flush_delay < Duration::zero()) {
    return Status<std::string>::err("oneway batching flush deadline must not be negative");
  }
  Managed& m = it->second;
  m.ov = ov;
  m.overridden = true;
  ++overrides_applied_;
  // The session's diff takes it from here: unchanged mechanisms are not
  // touched, per-invocation knobs are plain writes to the stub.
  m.session->apply(merge_override(m.base, ov));
  return {};
}

Status<std::string> QosControlPlane::clear_override(net::FlowId flow) {
  const auto it = managed_.find(flow);
  if (it == managed_.end()) {
    return Status<std::string>::err("flow is not under control-plane management");
  }
  Managed& m = it->second;
  if (!m.overridden) return {};  // idempotent: nothing to clear
  m.ov = PolicyOverride{};
  m.overridden = false;
  m.session->apply(m.base);
  return {};
}

const PolicyOverride* QosControlPlane::active_override(net::FlowId flow) const {
  const auto it = managed_.find(flow);
  if (it == managed_.end() || !it->second.overridden) return nullptr;
  return &it->second.ov;
}

QosControlClient::QosControlClient(orb::OrbEndpoint& orb, orb::ObjectRef control)
    : stub_(orb, std::move(control)) {}

void QosControlClient::override_flow(net::FlowId flow, const PolicyOverride& ov,
                                     Callback cb, Duration timeout) {
  orb::CdrWriter w;
  w.write_u64(flow);
  encode_override(w, ov);
  stub_.twoway(kOverrideFlowOp, w.take(), reply_handler(std::move(cb), decode_status_reply),
               timeout);
}

void QosControlClient::clear_override(net::FlowId flow, Callback cb, Duration timeout) {
  orb::CdrWriter w;
  w.write_u64(flow);
  stub_.twoway(kClearOverrideOp, w.take(), reply_handler(std::move(cb), decode_status_reply),
               timeout);
}

}  // namespace aqm::core
