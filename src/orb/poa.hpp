// Portable Object Adapter with RT-CORBA policies.
//
// Demultiplexing uses a flat hash map over object ids — the moral
// equivalent of TAO's perfect-hashing / active-demultiplexing object
// adapter: constant-time lookup independent of the number of servants.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "orb/rt/threadpool.hpp"
#include "orb/servant.hpp"
#include "orb/types.hpp"

namespace aqm::orb {

class OrbEndpoint;

struct PoaPolicies {
  PriorityModel priority_model = PriorityModel::ClientPropagated;
  /// Used when priority_model == ServerDeclared (and advertised in IORs).
  CorbaPriority server_priority = 0;
  /// Thread-pool lanes; a single default lane is created when empty.
  std::vector<rt::ThreadpoolLane> lanes;
};

/// Per-POA request accounting, maintained by the ORB's dispatch path and
/// exported next to the endpoint-level totals.
struct PoaDispatchStats {
  std::uint64_t dispatched = 0;
  std::uint64_t rejected = 0;    // thread-pool queue overflows
  std::uint64_t collocated = 0;  // requests that arrived via the loopback
};

class Poa {
 public:
  Poa(OrbEndpoint& orb, std::string name, PoaPolicies policies);
  Poa(const Poa&) = delete;
  Poa& operator=(const Poa&) = delete;

  /// Registers a servant and returns the object reference a client needs.
  /// The reference embeds the POA's QoS policies, mirroring RT-CORBA's
  /// tagged components ("server-side policies that affect client-side
  /// requests are embedded within a tagged component in the object
  /// reference").
  ObjectRef activate_object(const std::string& object_id, std::shared_ptr<Servant> servant);

  void deactivate_object(const std::string& object_id);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const PoaPolicies& policies() const { return policies_; }
  [[nodiscard]] std::size_t servant_count() const { return servants_.size(); }

  /// Constant-time servant lookup (active demultiplexing); takes a view
  /// into the request's object key, so the demux builds no string.
  [[nodiscard]] std::shared_ptr<Servant> find(std::string_view object_id) const;

  [[nodiscard]] rt::ThreadPool& thread_pool() { return *pool_; }

  [[nodiscard]] const PoaDispatchStats& dispatch_stats() const { return dispatch_stats_; }
  [[nodiscard]] PoaDispatchStats& dispatch_stats() { return dispatch_stats_; }

 private:
  OrbEndpoint& orb_;
  std::string name_;
  PoaPolicies policies_;
  PoaDispatchStats dispatch_stats_;
  /// Transparent hash: find() probes with a string_view.
  struct IdHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  std::unordered_map<std::string, std::shared_ptr<Servant>, IdHash, std::equal_to<>> servants_;
  std::unique_ptr<rt::ThreadPool> pool_;
};

}  // namespace aqm::orb
