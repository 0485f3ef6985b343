// CORBA-based CPU reservation manager.
//
// The paper (Section 3.3): "We are working with the University of Utah to
// develop a CORBA-based CPU reservation manager that will (1) be the local
// agent for setting up reservations on a host and (2) translate various
// representations of reservation specification into the particular style
// supported by the TimeSys implementation."
//
// Server side exposes create/destroy operations over the ORB; the client
// helper gives remote middleware (the QoS manager, QuO behaviors) typed
// asynchronous access.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/result.hpp"
#include "orb/orb.hpp"
#include "os/cpu.hpp"

namespace aqm::core {

inline constexpr const char* kCpuReserveManagerObjectId = "cpu_reserve_manager";
inline constexpr const char* kCreateReserveOp = "create_reserve";
inline constexpr const char* kUpdateReserveOp = "update_reserve";
inline constexpr const char* kDestroyReserveOp = "destroy_reserve";
inline constexpr const char* kQueryUtilizationOp = "query_utilization";

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
  using UtilizationCallback = std::function<void(Result<double>)>;

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

  /// Asks the remote host for its admitted reserve utilization, sum(C/T).
  /// Admission planners poll this before placing work; the server answers
  /// with os::Cpu::reserved_utilization().
  void query_utilization(UtilizationCallback cb, Duration timeout = seconds(2));

 private:
  orb::ObjectStub stub_;
};

}  // namespace aqm::core
