// CORBA-based CPU reservation manager.
//
// The paper (Section 3.3): "We are working with the University of Utah to
// develop a CORBA-based CPU reservation manager that will (1) be the local
// agent for setting up reservations on a host and (2) translate various
// representations of reservation specification into the particular style
// supported by the TimeSys implementation."
//
// Server side exposes create/update/destroy operations over the ORB; the
// client helper gives remote middleware (the QoS manager, QuO behaviors)
// typed asynchronous access. The wire codec and the client reply path at
// the bottom are shared with the QoS control plane
// (core/qos_control_plane.hpp), the other service that carries
// reservation requests over the ORB.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "orb/orb.hpp"
#include "os/cpu.hpp"

namespace aqm::core {

inline constexpr const char* kCpuReserveManagerObjectId = "cpu_reserve_manager";
inline constexpr const char* kCreateReserveOp = "create_reserve";
inline constexpr const char* kUpdateReserveOp = "update_reserve";
inline constexpr const char* kDestroyReserveOp = "destroy_reserve";

/// Host-local agent: activates the manager servant in `poa` and forwards
/// reservation requests to the host's resource kernel (os::Cpu).
class CpuReservationManagerServer {
 public:
  CpuReservationManagerServer(orb::Poa& poa, os::Cpu& cpu);

  [[nodiscard]] const orb::ObjectRef& ref() const { return ref_; }

 private:
  orb::ObjectRef ref_;
};

/// Remote client for a host's reservation manager.
class CpuReservationClient {
 public:
  using CreateCallback = std::function<void(Result<os::ReserveId>)>;
  using UpdateCallback = std::function<void(Status<std::string>)>;
  using DestroyCallback = std::function<void(bool ok)>;

  CpuReservationClient(orb::OrbEndpoint& orb, orb::ObjectRef manager);

  /// Requests a reserve of `spec.compute` every `spec.period` on the remote
  /// host. The callback receives the reserve id or the admission error.
  void create_reserve(const os::ReserveSpec& spec, CreateCallback cb,
                      Duration timeout = seconds(2));

  /// Resizes a live reserve in place on the remote host (os::Cpu::
  /// update_reserve): same reserve id, attached jobs stay attached,
  /// admission re-checked with the reserve's old share excluded. The
  /// control plane's CPU re-stamp primitive.
  void update_reserve(os::ReserveId id, const os::ReserveSpec& spec, UpdateCallback cb,
                      Duration timeout = seconds(2));

  void destroy_reserve(os::ReserveId id, DestroyCallback cb = nullptr,
                       Duration timeout = seconds(2));

 private:
  orb::ObjectStub stub_;
};

// --- control-plane wire codec ----------------------------------------------
// One CDR writer and one reader per wire type.

/// ReserveSpec: compute (i64 ns), period (i64 ns), hard (bool).
void write_reserve_spec(orb::CdrWriter& w, const os::ReserveSpec& spec);
[[nodiscard]] os::ReserveSpec read_reserve_spec(orb::CdrReader& r);

/// Status reply body: ok (bool), then the error string when not ok.
[[nodiscard]] std::vector<std::uint8_t> encode_status_reply(const Status<std::string>& status);
[[nodiscard]] Status<std::string> decode_status_reply(const std::vector<std::uint8_t>& body);

/// The one client reply path: wraps `cb` into an ORB response callback
/// that hands it `decode(body)`. A non-Ok completion arrives as
/// "rpc failed: <status>", an undecodable reply as the MarshalError's
/// text; a null `cb` ignores the reply. `Reply` is a Result<T> or a
/// Status<std::string>.
template <typename Reply>
[[nodiscard]] orb::OrbEndpoint::ResponseCallback reply_handler(
    std::function<void(Reply)> cb, Reply (*decode)(const std::vector<std::uint8_t>&)) {
  return [cb = std::move(cb), decode](orb::CompletionStatus status,
                                      std::vector<std::uint8_t> body) {
    if (!cb) return;
    if (status != orb::CompletionStatus::Ok) {
      cb(Reply::err(std::string("rpc failed: ") + orb::to_string(status)));
      return;
    }
    try {
      cb(decode(body));
    } catch (const orb::MarshalError& e) {
      cb(Reply::err(e.what()));
    }
  };
}

}  // namespace aqm::core
