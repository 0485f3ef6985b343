// Portable-interceptor-style hooks around the ORB's own invocation path.
//
// Every invocation passes through the OrbEndpoint's RT-CORBA stages and,
// around them, the interceptors registered with add_client_interceptor /
// add_server_interceptor:
//
//   client:  establish -> [marshal cpu cost] -> send_request -> wire
//            wire -> [demarshal cpu cost] -> receive_reply / receive_exception
//   server:  wire -> demux -> receive_request -> [dispatch] -> servant
//            servant -> send_reply -> wire
//
// `establish` runs at invocation time, before the marshal work is
// scheduled: it is the QoS-decision point (priority, DSCP override, flow,
// deadline) because the chosen priority also schedules the marshal job
// itself. `send_request` runs on the client CPU after the marshal cost has
// been charged, immediately before GIOP encoding: it is the stamping point
// for service contexts — the send timestamp can only exist there.
//
// The ORB stages are plain OrbEndpoint code, not interceptors: priority ->
// native mapping, the RTCorbaPriority / timestamp / trace / deadline
// service contexts, priority -> DSCP stamping, the server's deadline drop
// and the client's bounded retry. Registered client interceptors run
// BEFORE them in establish/send_request (so their QoS decisions are what
// the ORB maps and stamps) and after them, in reverse registration order,
// on the reply path. Registered server interceptors run AFTER them in
// every phase (so they observe fully resolved requests).
//
// A veto (`InterceptStatus::err`) short-circuits the invocation with the
// CompletionStatus encoding of a CORBA system exception — exceptions cannot
// cross simulated hosts, so the status code is what travels (see
// orb/exceptions.hpp). Contexts are stack-allocated views into pooled
// state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/time.hpp"
#include "net/dscp.hpp"
#include "net/packet.hpp"
#include "orb/exceptions.hpp"
#include "orb/giop.hpp"
#include "orb/types.hpp"

namespace aqm::orb {

class Poa;

/// Bounded retry with exponential backoff, applied by the client ORB to
/// Timeout/Transient outcomes. max_attempts == 1 disables retries.
struct RetryPolicy {
  int max_attempts = 1;
  Duration initial_backoff = milliseconds(50);
  double backoff_multiplier = 2.0;

  [[nodiscard]] bool enabled() const { return max_attempts > 1; }
  /// Backoff before re-issuing attempt `attempt + 1` (attempts are 1-based).
  [[nodiscard]] Duration backoff_after(int attempt) const {
    double scale = 1.0;
    for (int i = 1; i < attempt; ++i) scale *= backoff_multiplier;
    return Duration{static_cast<std::int64_t>(
        static_cast<double>(initial_backoff.ns()) * scale)};
  }
};

struct InvokeOptions {
  bool oneway = false;
  Duration timeout = seconds(2);
  /// Overrides the ambient client priority / server-declared priority.
  std::optional<CorbaPriority> priority;
  /// Network flow id (for reservations and per-flow statistics).
  net::FlowId flow = net::kNoFlow;
  /// Per-invocation end-to-end deadline. Rides a service context; the
  /// server drops requests whose deadline already expired before any
  /// servant work runs. Also bounds retries.
  std::optional<Duration> deadline;
  RetryPolicy retry;
};

/// Continue, or short-circuit the invocation with the wire encoding of a
/// CORBA system exception.
using InterceptStatus = Status<CompletionStatus>;

[[nodiscard]] inline InterceptStatus veto(CompletionStatus status) {
  return InterceptStatus::err(status);
}

/// Per-invocation client-side context. Pointer fields are phase-scoped:
/// `body` is only valid in establish (pre-marshal), `contexts` only in
/// send_request (stamping), and `ref`/`operation`/`options` are null on the
/// reply path of an invocation whose originals are gone (non-retryable).
struct ClientRequestContext {
  const ObjectRef* ref = nullptr;
  const std::string* operation = nullptr;
  const InvokeOptions* options = nullptr;
  std::uint32_t request_id = 0;
  bool oneway = false;
  int attempt = 1;  // 1-based
  TimePoint now{};

  // --- QoS decision slots (establish rewrites, the ORB consumes) -----------
  CorbaPriority priority = 0;
  /// Pre-empts the priority->DSCP mapping for this invocation.
  std::optional<net::Dscp> dscp_override;
  net::FlowId flow = net::kNoFlow;
  /// Absolute end-to-end deadline (simulation clock).
  std::optional<TimePoint> deadline;
  std::uint64_t trace_id = 0;

  /// Request payload — mutable during establish only (pre-marshal).
  std::vector<std::uint8_t>* body = nullptr;
  /// Request service contexts — valid during send_request only. The ORB
  /// appends its own contexts after the interceptors' ones.
  std::vector<ServiceContext>* contexts = nullptr;

  // --- reply path ----------------------------------------------------------
  CompletionStatus status = CompletionStatus::Ok;
};

/// Per-request server-side context. `contexts` is valid in
/// receive_request, `reply_contexts`/`reply_status`/`reply_dscp` in
/// send_reply.
struct ServerRequestContext {
  const std::string* operation = nullptr;
  const std::string* object_key = nullptr;
  const Poa* poa = nullptr;
  std::uint32_t request_id = 0;
  bool response_expected = true;
  bool collocated = false;
  net::NodeId client = net::kInvalidNode;
  TimePoint now{};

  const std::vector<ServiceContext>* contexts = nullptr;
  CorbaPriority priority = 0;
  std::optional<TimePoint> client_send_time;
  std::optional<TimePoint> deadline;
  std::uint64_t trace = 0;

  // --- send_reply phase ----------------------------------------------------
  /// Already holds the ORB's priority/timestamp/trace contexts.
  std::vector<ServiceContext>* reply_contexts = nullptr;
  ReplyStatus reply_status = ReplyStatus::NoException;
  /// Egress codepoint, derived by the ORB from the reply priority.
  net::Dscp reply_dscp = net::dscp::kBestEffort;
};

class ClientRequestInterceptor {
 public:
  virtual ~ClientRequestInterceptor() = default;
  [[nodiscard]] virtual const char* name() const = 0;

  /// QoS-decision point, at invocation time on the caller's host (may
  /// rewrite priority/dscp_override/flow/deadline/body, or veto before any
  /// CPU cost is paid).
  virtual InterceptStatus establish(ClientRequestContext&) { return {}; }
  /// Stamping point, on the client CPU post-marshal / pre-encode.
  virtual InterceptStatus send_request(ClientRequestContext&) { return {}; }
  /// Successful reply, post-demarshal / pre-callback.
  virtual void receive_reply(ClientRequestContext&) {}
  /// Error reply or local timeout (the ORB has already decided whether to
  /// retry).
  virtual void receive_exception(ClientRequestContext&) {}
};

class ServerRequestInterceptor {
 public:
  virtual ~ServerRequestInterceptor() = default;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Post-demux, pre-dispatch, after the ORB resolved priority, send time,
  /// trace and deadline from the service contexts; a veto rejects the
  /// request before any thread-pool/servant work.
  virtual InterceptStatus receive_request(ServerRequestContext&) { return {}; }
  /// Reply stamping, on the server CPU post-marshal-cost; a veto suppresses
  /// the reply (the client times out).
  virtual InterceptStatus send_reply(ServerRequestContext&) { return {}; }
};

}  // namespace aqm::orb
