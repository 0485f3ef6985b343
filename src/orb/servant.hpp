// Server-side request objects and the servant interface.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "net/packet.hpp"
#include "orb/types.hpp"

namespace aqm::orb {

class OrbEndpoint;

/// One incoming request as seen by a servant. The ORB recycles these from
/// a per-endpoint pool: a servant may keep what it needs from one, or the
/// replier from defer(), but not a reference to the request itself past
/// handle().
struct ServerRequest {
  std::string operation;
  std::vector<std::uint8_t> body;
  net::NodeId client = net::kInvalidNode;
  /// CORBA priority the dispatch used (propagated or server-declared).
  CorbaPriority priority = 0;
  /// Client-side send timestamp (from the timestamp service context).
  std::optional<TimePoint> client_send_time;
  /// When the servant handler ran (i.e. after queueing + CPU processing).
  TimePoint handled_at{};

  /// Filled by the servant for twoway requests answered synchronously.
  std::vector<std::uint8_t> reply_body;

  /// Asynchronous (AMI-style deferred) replies: handle() may call defer()
  /// and keep the returned replier. The ORB then sends no reply when
  /// handle() returns; the reply goes out when the replier is invoked.
  /// Invoking it more than once is a no-op; never invoking it leaves the
  /// client to its timeout. Throws BadParam on oneway requests.
  using Replier = std::function<void(std::vector<std::uint8_t> reply_body)>;
  [[nodiscard]] Replier defer();

  [[nodiscard]] bool deferred() const { return deferred_; }

  // --- ORB plumbing (set by the dispatch path, not by servants) ---------------
  Replier replier;  // non-null for twoway requests
 private:
  friend class OrbEndpoint;  // recycles pooled requests
  bool deferred_ = false;
};

class Servant {
 public:
  virtual ~Servant() = default;

  /// CPU time the request consumes (demultiplexed, demarshaled and
  /// processed) before handle() observes it. Simulated on the host CPU at
  /// the request's dispatch priority.
  [[nodiscard]] virtual Duration cpu_cost(const ServerRequest& req) const;

  /// Application logic; runs when the simulated CPU work completes.
  /// May throw a SystemException to answer the client with an error.
  virtual void handle(ServerRequest& req) = 0;
};

/// Convenience servant wrapping a callable with a fixed or computed cost.
class FunctionServant final : public Servant {
 public:
  using Handler = std::function<void(ServerRequest&)>;
  using CostFn = std::function<Duration(const ServerRequest&)>;

  FunctionServant(Duration fixed_cost, Handler handler);
  FunctionServant(CostFn cost, Handler handler);

  [[nodiscard]] Duration cpu_cost(const ServerRequest& req) const override;
  void handle(ServerRequest& req) override;

 private:
  CostFn cost_;
  Handler handler_;
};

}  // namespace aqm::orb
