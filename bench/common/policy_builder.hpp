// Fluent EndToEndQosPolicy construction for the bench drivers. Every
// driver used to hand-assemble its policies field by field; the builder
// keeps each driver's QoS declaration to one expression and gives the
// recurring shapes (a classified sender at a priority, a reserved stream,
// an SLO-bearing flow) a single definition the drivers share.
//
// The builder only ever sets the fields named in the chain — build()
// returns exactly the policy the equivalent field assignments produced,
// so converting a driver cannot change its output bytes.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "core/qos_policy.hpp"
#include "net/dscp.hpp"
#include "net/packet.hpp"
#include "net/rsvp.hpp"
#include "obs/telemetry.hpp"
#include "orb/transport.hpp"
#include "orb/types.hpp"
#include "os/cpu.hpp"

namespace aqm::bench {

class PolicyBuilder {
 public:
  PolicyBuilder() = default;

  /// The common baseline: flow id for the classifier plus a low CORBA
  /// priority (what default_sender_policy used to hard-code).
  [[nodiscard]] static PolicyBuilder sender(net::FlowId flow,
                                            orb::CorbaPriority priority = 1000) {
    PolicyBuilder b;
    b.flow(flow).priority(priority);
    return b;
  }

  PolicyBuilder& flow(net::FlowId flow) {
    p_.flow = flow;
    return *this;
  }
  PolicyBuilder& priority(orb::CorbaPriority priority) {
    p_.priority = priority;
    return *this;
  }
  /// Banded CORBA-priority -> DSCP mapping (needs a DiffServ PHB to matter).
  PolicyBuilder& banded_dscp(bool on = true) {
    p_.map_priority_to_dscp = on;
    return *this;
  }
  PolicyBuilder& dscp(net::Dscp dscp) {
    p_.explicit_dscp = dscp;
    return *this;
  }
  PolicyBuilder& deadline(Duration deadline) {
    p_.deadline = deadline;
    return *this;
  }
  PolicyBuilder& cpu_reserve(Duration compute, Duration period, bool hard = false) {
    p_.server_cpu_reserve = os::ReserveSpec{compute, period, hard};
    return *this;
  }
  PolicyBuilder& network(double rate_bps, std::uint32_t bucket_bytes = 40'000) {
    p_.network_reservation = net::FlowSpec{rate_bps, bucket_bytes};
    return *this;
  }
  PolicyBuilder& batching(const orb::BatchPolicy& batching) {
    p_.oneway_batching = batching;
    return *this;
  }
  PolicyBuilder& slo(const obs::SloSpec& slo) {
    p_.slo = slo;
    return *this;
  }

  [[nodiscard]] core::EndToEndQosPolicy build() const { return p_; }
  operator core::EndToEndQosPolicy() const { return p_; }  // NOLINT(google-explicit-constructor)

 private:
  core::EndToEndQosPolicy p_;
};

}  // namespace aqm::bench
