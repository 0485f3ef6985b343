// The ORB endpoint: one per simulated host.
//
// Client side: invoke() resolves the call's priority and makes its
// end-to-end deadline absolute (an attempt that starts past it is vetoed
// before any cost is paid), then runs the marshal job at the native band
// the priority maps to. After the marshal cost the ORB stamps the
// RTCorbaPriority / timestamp / deadline service contexts, picks the DSCP
// (the reference's protocol DSCP, else the priority mapping), encodes and
// hands the bytes to the transport, with the call's trace id (if traced)
// riding out of band on every packet. Twoway replies are
// matched by request id with a timeout; on a timeout or a transient error
// the ORB decides a bounded retry with exponential backoff.
//
// Server side: complete messages are demultiplexed to a POA/servant, the
// ORB resolves priority, send time and deadline from the service contexts
// (dropping malformed ones like any undecodable message, and vetoing
// expired deadlines before any servant work) and takes the trace id from
// the delivered message, then the request is dispatched into the POA's RT
// thread pool. For twoways the ORB sends a reply with no service context
// at the DSCP its priority maps to.
//
// The steady-state round trip allocates nothing (DESIGN.md §8). Each
// client invocation lives in a recycled call record from invoke() to its
// completion (retries included), pending replies are found through a
// FlatIndex, each server request lives in a recycled server record with
// its ServerRequest, and requests and replies are encoded from endpoint
// scratch headers. Every callback the endpoint hands to the CPU, the
// engine, a thread pool or a Replier captures {this, slot} or
// {this, slot, generation}: at most 16 bytes, which std::function and the
// engine's InlineHandler both store inline.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flat_index.hpp"
#include "common/time.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "orb/exceptions.hpp"
#include "orb/giop.hpp"
#include "orb/poa.hpp"
#include "orb/rt/dscp_mapping.hpp"
#include "orb/rt/priority_mapping.hpp"
#include "orb/servant.hpp"
#include "orb/transport.hpp"
#include "orb/types.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

namespace aqm::orb {

/// Bounded retry with exponential backoff, applied by the client ORB to
/// Timeout/Transient outcomes. max_attempts == 1 disables retries.
struct RetryPolicy {
  int max_attempts = 1;
  Duration initial_backoff = milliseconds(50);
  double backoff_multiplier = 2.0;

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

struct OrbStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t requests_dispatched = 0;
  std::uint64_t replies_ok = 0;
  std::uint64_t replies_error = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t dispatch_rejected = 0;  // thread-pool queue overflows
  std::uint64_t collocated_calls = 0;   // requests that skipped the transport
  // --- deadline and retry counters ------------------------------------------
  std::uint64_t client_vetoed = 0;     // attempts that started past their deadline
  std::uint64_t server_vetoed = 0;     // requests that arrived past their deadline
  std::uint64_t retries = 0;           // re-issued attempts
  std::uint64_t deadline_missed = 0;   // client-side misses: pre-send expiry + timeouts
};

class OrbEndpoint {
 public:
  using ResponseCallback =
      std::function<void(CompletionStatus, std::vector<std::uint8_t> body)>;

  /// The marshal/demux CPU costs are fixed (orb.cpp); the transport is the
  /// configurable part.
  OrbEndpoint(net::Network& net, net::NodeId node, os::Cpu& cpu,
              TransportConfig transport = {});
  OrbEndpoint(const OrbEndpoint&) = delete;
  OrbEndpoint& operator=(const OrbEndpoint&) = delete;

  // --- RT-CORBA mappings ------------------------------------------------------

  /// The installed mappings; install a custom one by assigning to them.
  [[nodiscard]] rt::PriorityMapping& priority_mappings() { return priority_mapping_; }
  [[nodiscard]] const rt::PriorityMapping& priority_mappings() const {
    return priority_mapping_;
  }
  [[nodiscard]] rt::DscpMapping& dscp_mappings() { return dscp_mapping_; }

  /// RTCurrent: ambient CORBA priority of this endpoint's client calls.
  void set_client_priority(CorbaPriority p) { client_priority_ = p; }

  // --- server side -------------------------------------------------------------

  Poa& create_poa(const std::string& name, PoaPolicies policies = {});
  [[nodiscard]] Poa* find_poa(std::string_view name);

  // --- client side -------------------------------------------------------------

  /// Fire an invocation. For oneways `cb` may be null; for twoways it is
  /// called exactly once with the outcome. On a batched flow, any number
  /// of invocations can be in flight on one logical connection —
  /// completions demux by request id — and small requests coalesce in the
  /// transport until a count, byte or deadline threshold flushes them.
  void invoke(const ObjectRef& ref, const std::string& operation,
              std::vector<std::uint8_t> body, InvokeOptions options,
              ResponseCallback cb = nullptr);

  // --- plumbing -----------------------------------------------------------------

  [[nodiscard]] net::NodeId node() const { return transport_.node(); }
  [[nodiscard]] os::Cpu& cpu() { return cpu_; }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] sim::Engine& engine() { return net_.engine(); }
  [[nodiscard]] GiopTransport& transport() { return transport_; }
  [[nodiscard]] const OrbStats& stats() const { return stats_; }
  /// Encode-buffer pool shared by this endpoint's request and reply paths.
  [[nodiscard]] CdrBufferPool& buffer_pool() { return pool_; }

  /// Trace id of the most recently dispatched (server-side) request. Lets
  /// application code executing downstream of a dispatch — QuO measurement
  /// probes, adaptation callbacks — chain its events to the causing
  /// request. 0 when no traced request has been dispatched.
  [[nodiscard]] std::uint64_t last_dispatch_trace() const { return last_dispatch_trace_; }

  /// Dumps the endpoint's counters into a registry under
  /// "<prefix>.requests_sent" etc.
  void export_metrics(obs::MetricsRegistry& reg, std::string_view prefix) const;

 private:
  /// One client invocation, from invoke() to the caller's callback, kept
  /// across retries. Records are recycled with their strings' and buffers'
  /// capacity, so a warm invocation copies into them without allocating.
  struct CallRecord {
    // --- the invocation, as passed to invoke() -------------------------------
    ObjectRef ref;
    std::string operation;
    std::vector<std::uint8_t> body;
    InvokeOptions options;
    ResponseCallback cb;
    int attempt = 1;
    /// Absolute deadline, carried across retries.
    std::optional<TimePoint> deadline;
    // --- the current attempt ------------------------------------------------
    std::uint32_t request_id = 0;
    CorbaPriority priority = 0;
    std::uint64_t trace = 0;
    const char* span_name = nullptr;  // interned "call <op>" for the async end
    sim::EventId timeout{};
    TimePoint sent_at{};  // post-marshal send instant
    // --- the reply ----------------------------------------------------------
    ReplyStatus reply_status = ReplyStatus::NoException;
    std::vector<std::uint8_t> reply_body;
  };

  /// One server-side request (or bare error reply), from demux to the
  /// reply's send. `generation` changes on every release, so a stale or
  /// repeated Replier call is recognised and ignored.
  struct ServerCall {
    ServerRequest req;  // req.reply_body carries the reply
    std::shared_ptr<Servant> servant;
    Poa* poa = nullptr;
    std::uint32_t request_id = 0;
    std::uint64_t trace = 0;
    std::uint32_t generation = 0;
    bool response_expected = false;
    bool replied = false;
    /// Priority the normal reply goes out at (the dispatch priority; the
    /// servant may have changed req.priority, which exception replies use).
    CorbaPriority dispatch_priority = 0;
    ReplyStatus reply_status = ReplyStatus::NoException;
    CorbaPriority reply_priority = 0;
  };

  // --- client call path (all keyed by call-record slot) --------------------
  std::uint32_t acquire_call();
  void release_call(std::uint32_t slot);
  /// The deadline check and priority mapping, then the marshal job of the
  /// record's current attempt.
  void start_attempt(std::uint32_t slot);
  /// Marshal job done: ORB contexts and DSCP, encode, ship.
  void send_request(std::uint32_t slot);
  void on_timeout(std::uint32_t slot);
  /// Reply demarshaled: the caller's callback or the exception path.
  void finish_reply(std::uint32_t slot);
  /// Decides a retry, then either re-issues the call after the backoff or
  /// completes it.
  void complete_exception(std::uint32_t slot, CompletionStatus status);

  void on_message(net::NodeId src, const MessageView& msg);
  /// Both take the decode scratch by reference and swap its body and
  /// strings with pooled buffers; decode_into refills them on the next
  /// message. `trace` is the delivered message's (MessageView::trace).
  void handle_request(net::NodeId src, GiopMessage& msg, std::size_t wire_size,
                      std::uint64_t trace);
  void handle_reply(GiopMessage& msg, std::size_t wire_size);

  // --- server call path (keyed by server-record slot) ----------------------
  std::uint32_t acquire_server_call(net::NodeId client, std::uint32_t request_id,
                                    std::uint64_t trace);
  void release_server_call(std::uint32_t slot);
  /// Thread-pool work done: runs the servant and answers synchronously.
  void run_servant(std::uint32_t slot);
  /// A Replier fired: sends the deferred reply unless already answered.
  void deferred_reply(std::uint32_t slot, std::uint32_t generation,
                      std::vector<std::uint8_t> body);
  /// Answers with a system exception whose body encodes `status`.
  void send_error_reply(std::uint32_t slot, CompletionStatus status, CorbaPriority priority);
  /// Queues the reply marshal job for the record's req.reply_body.
  void send_reply(std::uint32_t slot, ReplyStatus status, CorbaPriority priority);
  /// Reply marshal job done: DSCP, encode, ship, release.
  void marshal_reply(std::uint32_t slot);
  /// Engine recorder iff orb tracing is on; on first use of a recorder,
  /// binds the "orb:<node>" lane and starts a fresh span-name cache.
  [[nodiscard]] obs::TraceRecorder* orb_tracer();
  /// The interned "call <operation>" span name in the bound recorder.
  [[nodiscard]] const char* span_name(obs::TraceRecorder& tr, const std::string& operation);
  [[nodiscard]] Duration marshal_cost(std::size_t bytes) const;
  [[nodiscard]] Duration demarshal_cost(std::size_t bytes) const;

  net::Network& net_;
  os::Cpu& cpu_;
  CdrBufferPool pool_;
  GiopTransport transport_;
  rt::PriorityMapping priority_mapping_;
  rt::DscpMapping dscp_mapping_;
  CorbaPriority client_priority_ = 0;
  std::map<std::string, std::unique_ptr<Poa>, std::less<>> poas_;
  /// Call records (stable addresses: user callbacks may re-enter invoke())
  /// and their free list; in-flight twoways are found by request id.
  std::vector<std::unique_ptr<CallRecord>> calls_;
  std::vector<std::uint32_t> free_calls_;
  FlatIndex<std::uint64_t> pending_;
  std::vector<std::unique_ptr<ServerCall>> server_calls_;
  std::vector<std::uint32_t> free_server_calls_;
  /// Receive-path decode scratch: every inbound message decodes into this
  /// one GiopMessage, reusing its strings/contexts/body capacity. Safe
  /// because servant and callback work is always deferred through the CPU
  /// or thread pool, so no nested on_message can run while it is live.
  GiopMessage decode_scratch_;
  /// Encode-side twins of decode_scratch_: each request/reply is filled
  /// into one of these and encoded before anything can re-enter, and a
  /// request's stamped contexts are recycled through context_spare_.
  RequestHeader request_scratch_;
  ReplyHeader reply_scratch_;
  std::vector<ServiceContext> context_spare_;
  std::uint32_t next_request_id_ = 1;
  OrbStats stats_;
  // The recorder (by uid) obs_track_ and span_names_ belong to.
  std::uint64_t obs_bound_ = 0;
  std::uint16_t obs_track_ = 0;
  /// "call <operation>" async-span names, interned once per operation.
  std::vector<std::pair<std::string, const char*>> span_names_;
  std::uint64_t last_dispatch_trace_ = 0;
};

/// Client-side proxy bound to one object reference — the moral equivalent
/// of RT-CORBA explicit binding. Carries the per-binding QoS every
/// invocation through it uses: flow id, priority, deadline and retry
/// policy, plus the DSCP protocol property of ref(). core::QoSSession
/// writes its policy here.
class ObjectStub {
 public:
  ObjectStub(OrbEndpoint& orb, ObjectRef ref) : orb_(&orb), ref_(std::move(ref)) {}

  [[nodiscard]] const ObjectRef& ref() const { return ref_; }
  [[nodiscard]] ObjectRef& ref() { return ref_; }
  [[nodiscard]] OrbEndpoint& orb() const { return *orb_; }

  void set_flow(net::FlowId flow) { flow_ = flow; }
  [[nodiscard]] net::FlowId flow() const { return flow_; }
  void set_priority(CorbaPriority p) { priority_ = p; }
  void clear_priority() { priority_.reset(); }
  [[nodiscard]] std::optional<CorbaPriority> priority() const { return priority_; }
  /// Per-binding end-to-end deadline applied to every invocation (the
  /// server drops requests that arrive expired).
  void set_deadline(Duration deadline) { deadline_ = deadline; }
  void clear_deadline() { deadline_.reset(); }
  [[nodiscard]] std::optional<Duration> deadline() const { return deadline_; }
  /// Per-binding retry policy for twoway timeouts (bounded exponential
  /// backoff, applied by the client ORB).
  void set_retry(RetryPolicy retry) { retry_ = retry; }

  void oneway(const std::string& operation, std::vector<std::uint8_t> body);
  void twoway(const std::string& operation, std::vector<std::uint8_t> body,
              OrbEndpoint::ResponseCallback cb, Duration timeout = seconds(2));

 private:
  /// Single funnel for both call styles: assembles the binding's
  /// InvokeOptions (flow, priority, deadline, retry) exactly once.
  void invoke_with_binding(const std::string& operation, std::vector<std::uint8_t> body,
                           bool oneway, OrbEndpoint::ResponseCallback cb,
                           Duration timeout);

  OrbEndpoint* orb_;
  ObjectRef ref_;
  net::FlowId flow_ = net::kNoFlow;
  std::optional<CorbaPriority> priority_;
  std::optional<Duration> deadline_;
  RetryPolicy retry_;
};

}  // namespace aqm::orb
