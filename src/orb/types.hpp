// Core ORB value types: CORBA priorities, priority models, protocol
// properties and object references.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/dscp.hpp"
#include "net/packet.hpp"

namespace aqm::orb {

/// RT-CORBA priority: a platform-independent priority in [0, 32767] that
/// priority-mapping managers translate to native OS priorities and (in our
/// TAO-style extension) to DiffServ codepoints.
using CorbaPriority = std::int32_t;
inline constexpr CorbaPriority kMinCorbaPriority = 0;
inline constexpr CorbaPriority kMaxCorbaPriority = 32767;
/// Priority of a CLIENT_PROPAGATED request that carries no priority context.
inline constexpr CorbaPriority kDefaultCorbaPriority = kMinCorbaPriority;

/// RT-CORBA PriorityModelPolicy.
enum class PriorityModel : std::uint8_t {
  /// Requests run at the priority propagated by the client in the
  /// RTCorbaPriority service context.
  ClientPropagated,
  /// Requests run at the priority declared by the server in the IOR.
  ServerDeclared,
};

/// TAO-style protocol properties (the paper's first enhancement: exposing
/// the DiffServ codepoint of GIOP traffic as an ORB protocol property).
struct ProtocolProperties {
  /// When set, overrides the DSCP derived from the priority mapping.
  std::optional<net::Dscp> dscp;
};

/// A simulated interoperable object reference. Carries the addressing
/// information plus the QoS-relevant tagged components a real RT-CORBA IOR
/// embeds (priority model, server priority, protocol properties).
struct ObjectRef {
  net::NodeId node = net::kInvalidNode;
  std::string object_key;  // "<poa>/<object-id>"
  PriorityModel priority_model = PriorityModel::ClientPropagated;
  CorbaPriority server_priority = 0;
  ProtocolProperties protocol;

  [[nodiscard]] bool valid() const { return node != net::kInvalidNode && !object_key.empty(); }
};

}  // namespace aqm::orb
