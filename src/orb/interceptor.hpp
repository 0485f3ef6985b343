// Portable-interceptor-style invocation pipeline (RT-CORBA PI flavor).
//
// Every invocation flows through ordered interceptor chains registered on
// the OrbEndpoint:
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
// (service contexts, final DSCP, flow classification) — the send timestamp
// can only exist there.
//
// Built-in interceptors re-implement the previously hard-wired ORB
// behaviors: priority resolution + native mapping, RTCorbaPriority /
// timestamp / trace / deadline service contexts, priority->DSCP stamping,
// and flow classification. They sit closest to the wire: user client
// interceptors are inserted BEFORE the built-ins (so their establish-phase
// QoS decisions are visible to the built-in stampers), user server
// interceptors AFTER them (so they observe fully resolved requests).
//
// A veto (`InterceptStatus::err`) short-circuits the invocation with the
// CompletionStatus encoding of a CORBA system exception — exceptions cannot
// cross simulated hosts, so the status code is what travels (see
// orb/exceptions.hpp). Contexts are stack-allocated views into pooled
// state, and the built-in stampers append service contexts into the
// endpoint's scratch headers from a spare list that keeps each element's
// byte buffer: steady-state invocations allocate nothing in the pipeline.
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
#include "os/priority.hpp"

namespace aqm::orb {

class OrbEndpoint;
class Poa;

/// Bounded retry with exponential backoff, driven by the client-side
/// deadline/retry interceptor. max_attempts == 1 disables retries.
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

  // --- QoS decision slots (establish rewrites, send_request consumes) ------
  CorbaPriority priority = 0;
  /// Native priority the marshal job is scheduled at (priority->native
  /// mapping, applied by the built-in priority interceptor in establish).
  os::Priority native_priority = 0;
  /// Set by policy/user interceptors to pre-empt the priority->DSCP
  /// mapping; consumed by the built-in DSCP interceptor.
  std::optional<net::Dscp> dscp_override;
  /// Final egress codepoint (valid after the built-in DSCP interceptor ran).
  net::Dscp dscp = net::dscp::kBestEffort;
  net::FlowId flow = net::kNoFlow;
  /// Absolute end-to-end deadline (simulation clock).
  std::optional<TimePoint> deadline;
  /// Transport-coalescing flush deadline for this invocation (QoS policy /
  /// user interceptors). Tightens the staged batch's flush timer; no
  /// effect when batching is off for the request's flow.
  std::optional<Duration> batch_flush_override;
  std::uint64_t trace_id = 0;

  /// Request payload — mutable during establish only (pre-marshal).
  std::vector<std::uint8_t>* body = nullptr;
  /// Request service contexts — valid during send_request only.
  std::vector<ServiceContext>* contexts = nullptr;
  /// Recycled context elements the built-in stampers append from (see
  /// stamp_priority_context); null when none are pooled.
  std::vector<ServiceContext>* context_spare = nullptr;

  // --- reply path ----------------------------------------------------------
  CompletionStatus status = CompletionStatus::Ok;
  /// Effective retry policy of this invocation (receive_exception only).
  RetryPolicy retry;
  bool retry_requested = false;
  Duration retry_backoff{};
  /// Ask the ORB to re-issue the invocation after `backoff` instead of
  /// completing the caller's callback. Honored only when the invocation
  /// opted into retries (receive_exception phase).
  void request_retry(Duration backoff) {
    retry_requested = true;
    retry_backoff = backoff;
  }
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
  std::vector<ServiceContext>* reply_contexts = nullptr;
  /// Recycled context elements the built-in stampers append from.
  std::vector<ServiceContext>* context_spare = nullptr;
  ReplyStatus reply_status = ReplyStatus::NoException;
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
  /// Error reply or local timeout; may call ctx.request_retry().
  virtual void receive_exception(ClientRequestContext&) {}
};

class ServerRequestInterceptor {
 public:
  virtual ~ServerRequestInterceptor() = default;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Post-demux, pre-dispatch: resolves QoS from service contexts; a veto
  /// rejects the request before any thread-pool/servant work.
  virtual InterceptStatus receive_request(ServerRequestContext&) { return {}; }
  /// Reply stamping, on the server CPU post-marshal-cost; a veto suppresses
  /// the reply (the client times out).
  virtual InterceptStatus send_reply(ServerRequestContext&) { return {}; }
};

// --- built-in interceptors -------------------------------------------------
// Constructed by OrbEndpoint at start-up; exposed here so tests and
// documentation can reference the concrete pipeline stages.

/// Priority resolution artifacts: maps the resolved CORBA priority to the
/// native priority band (client establish) and stamps/extracts the
/// RTCorbaPriority service context.
class PriorityInterceptor final : public ClientRequestInterceptor,
                                  public ServerRequestInterceptor {
 public:
  explicit PriorityInterceptor(OrbEndpoint& orb) : orb_(orb) {}
  [[nodiscard]] const char* name() const override { return "rt.priority"; }
  InterceptStatus establish(ClientRequestContext& ctx) override;
  InterceptStatus send_request(ClientRequestContext& ctx) override;
  InterceptStatus receive_request(ServerRequestContext& ctx) override;
  InterceptStatus send_reply(ServerRequestContext& ctx) override;

 private:
  OrbEndpoint& orb_;
};

/// Send-timestamp service context (latency measurement), both directions.
class TimestampInterceptor final : public ClientRequestInterceptor,
                                   public ServerRequestInterceptor {
 public:
  [[nodiscard]] const char* name() const override { return "obs.timestamp"; }
  InterceptStatus send_request(ClientRequestContext& ctx) override;
  InterceptStatus receive_request(ServerRequestContext& ctx) override;
  InterceptStatus send_reply(ServerRequestContext& ctx) override;
};

/// Causal trace-id propagation: one trace id per invocation rides a
/// service context end-to-end (see obs/trace.hpp).
class TraceInterceptor final : public ClientRequestInterceptor,
                               public ServerRequestInterceptor {
 public:
  [[nodiscard]] const char* name() const override { return "obs.trace"; }
  InterceptStatus send_request(ClientRequestContext& ctx) override;
  InterceptStatus receive_request(ServerRequestContext& ctx) override;
  InterceptStatus send_reply(ServerRequestContext& ctx) override;
};

/// Client half of the deadline/retry behavior: computes the absolute
/// deadline, stamps the deadline service context, and decides bounded
/// exponential-backoff retries on timeout.
class DeadlineRetryInterceptor final : public ClientRequestInterceptor {
 public:
  [[nodiscard]] const char* name() const override { return "rt.deadline"; }
  InterceptStatus establish(ClientRequestContext& ctx) override;
  InterceptStatus send_request(ClientRequestContext& ctx) override;
  void receive_exception(ClientRequestContext& ctx) override;
};

/// Server half: drops requests whose end-to-end deadline already expired
/// before any servant work is spent on them.
class DeadlineDropInterceptor final : public ServerRequestInterceptor {
 public:
  [[nodiscard]] const char* name() const override { return "rt.deadline"; }
  InterceptStatus receive_request(ServerRequestContext& ctx) override;
};

/// Priority->DSCP stamping: explicit override (policy / protocol
/// properties) wins, otherwise the endpoint's DSCP mapping manager decides.
class DscpInterceptor final : public ClientRequestInterceptor,
                              public ServerRequestInterceptor {
 public:
  explicit DscpInterceptor(OrbEndpoint& orb) : orb_(orb) {}
  [[nodiscard]] const char* name() const override { return "rt.dscp"; }
  InterceptStatus send_request(ClientRequestContext& ctx) override;
  InterceptStatus send_reply(ServerRequestContext& ctx) override;

 private:
  OrbEndpoint& orb_;
};

/// Per-flow classification hook: consults the endpoint's installed
/// net::FlowClassifier (RSVP/token-bucket steering) for the final flow id.
class FlowClassificationInterceptor final : public ClientRequestInterceptor {
 public:
  explicit FlowClassificationInterceptor(OrbEndpoint& orb) : orb_(orb) {}
  [[nodiscard]] const char* name() const override { return "net.flow"; }
  InterceptStatus send_request(ClientRequestContext& ctx) override;

 private:
  OrbEndpoint& orb_;
};

}  // namespace aqm::orb
