#include "orb/orb.hpp"

#include <cassert>
#include <utility>

#include "common/log.hpp"
#include "obs/telemetry.hpp"

namespace aqm::orb {
namespace {

// Client-side request marshaling cost: base + per KB of message.
constexpr Duration kMarshalBase = microseconds(20);
constexpr Duration kMarshalPerKb = microseconds(4);
// Server-side header parse + POA demux cost, and demarshal per KB.
constexpr Duration kDemuxBase = microseconds(25);
constexpr Duration kDemarshalPerKb = microseconds(4);

/// Encodes a CompletionStatus code as an exception reply body into `out`.
void encode_error_body(CompletionStatus status, std::vector<std::uint8_t>& out) {
  out.clear();
  CdrWriter(out).write_u32(static_cast<std::uint32_t>(status));
}

CompletionStatus decode_error_body(const std::vector<std::uint8_t>& body) {
  try {
    CdrReader r(body);
    const auto code = r.read_u32();
    if (code > static_cast<std::uint32_t>(CompletionStatus::SystemError)) {
      return CompletionStatus::SystemError;
    }
    return static_cast<CompletionStatus>(code);
  } catch (const MarshalError&) {
    return CompletionStatus::SystemError;
  }
}

}  // namespace

OrbEndpoint::OrbEndpoint(net::Network& net, net::NodeId node, os::Cpu& cpu,
                         TransportConfig transport)
    : net_(net), cpu_(cpu), transport_(net, node, transport) {
  transport_.set_message_handler(
      [this](net::NodeId src, const MessageView& msg) { on_message(src, msg); });
}

Poa& OrbEndpoint::create_poa(const std::string& name, PoaPolicies policies) {
  assert(poas_.count(name) == 0 && "POA already exists");
  auto poa = std::make_unique<Poa>(*this, name, std::move(policies));
  Poa& ref = *poa;
  poas_[name] = std::move(poa);
  return ref;
}

Poa* OrbEndpoint::find_poa(std::string_view name) {
  const auto it = poas_.find(name);
  return it == poas_.end() ? nullptr : it->second.get();
}

Duration OrbEndpoint::marshal_cost(std::size_t bytes) const {
  return kMarshalBase + kMarshalPerKb * static_cast<std::int64_t>(bytes / 1024);
}

Duration OrbEndpoint::demarshal_cost(std::size_t bytes) const {
  return kDemuxBase + kDemarshalPerKb * static_cast<std::int64_t>(bytes / 1024);
}

obs::TraceRecorder* OrbEndpoint::orb_tracer() {
  obs::TraceRecorder* tr = engine().tracer_for(obs::TraceCategory::Orb);
  if (tr != nullptr && obs_bound_ != tr->uid()) {
    obs_track_ = tr->track("orb:" + net_.node_name(node()));
    span_names_.clear();
    obs_bound_ = tr->uid();
  }
  return tr;
}

const char* OrbEndpoint::span_name(obs::TraceRecorder& tr, const std::string& operation) {
  for (const auto& [op, name] : span_names_) {
    if (op == operation) return name;
  }
  const char* name = tr.intern("call ", operation);
  span_names_.emplace_back(operation, name);
  return name;
}

// --- metrics -----------------------------------------------------------------

void OrbEndpoint::export_metrics(obs::MetricsRegistry& reg, std::string_view prefix) const {
  const std::string p(prefix);
  reg.counter(p + ".requests_sent").set(stats_.requests_sent);
  reg.counter(p + ".requests_dispatched").set(stats_.requests_dispatched);
  reg.counter(p + ".replies_ok").set(stats_.replies_ok);
  reg.counter(p + ".replies_error").set(stats_.replies_error);
  reg.counter(p + ".timeouts").set(stats_.timeouts);
  reg.counter(p + ".dispatch_rejected").set(stats_.dispatch_rejected);
  reg.counter(p + ".collocated_calls").set(stats_.collocated_calls);
  reg.counter(p + ".messages_expired").set(transport_.messages_expired());
  // Emitted only when coalescing is actually in play, so metrics sidecars
  // of unbatched runs stay byte-identical to the pre-batching ORB.
  if (transport_.batched_messages() > 0) {
    reg.counter(p + ".transport.batches_sent").set(transport_.batches_sent());
    reg.counter(p + ".transport.batched_messages").set(transport_.batched_messages());
    reg.counter(p + ".transport.batches_delivered").set(transport_.batches_delivered());
  }
  reg.counter(p + ".client_vetoed").set(stats_.client_vetoed);
  reg.counter(p + ".server_vetoed").set(stats_.server_vetoed);
  reg.counter(p + ".deadline_missed").set(stats_.deadline_missed);
  reg.counter(p + ".retries").set(stats_.retries);
  for (const auto& [name, poa] : poas_) {
    const std::string base = p + ".poa." + name;
    reg.counter(base + ".dispatched").set(poa->dispatch_stats().dispatched);
    reg.counter(base + ".rejected").set(poa->dispatch_stats().rejected);
    reg.counter(base + ".collocated").set(poa->dispatch_stats().collocated);
  }
}

// --- client side -------------------------------------------------------------

std::uint32_t OrbEndpoint::acquire_call() {
  if (!free_calls_.empty()) {
    const std::uint32_t slot = free_calls_.back();
    free_calls_.pop_back();
    return slot;
  }
  calls_.push_back(std::make_unique<CallRecord>());
  return static_cast<std::uint32_t>(calls_.size() - 1);
}

void OrbEndpoint::release_call(std::uint32_t slot) {
  calls_[slot]->cb = nullptr;  // drop the caller's captures now
  free_calls_.push_back(slot);
}

void OrbEndpoint::invoke(const ObjectRef& ref, const std::string& operation,
                         std::vector<std::uint8_t> body, InvokeOptions options,
                         ResponseCallback cb) {
  if (!ref.valid()) throw BadParam("invoke on invalid object reference");
  if (!options.oneway && !cb) throw BadParam("twoway invoke requires a callback");
  const std::uint32_t slot = acquire_call();
  CallRecord& rec = *calls_[slot];
  rec.ref = ref;  // copy-assign: the record's strings keep their capacity
  rec.operation = operation;
  rec.body.swap(body);
  rec.options = options;
  rec.cb = std::move(cb);
  rec.attempt = 1;
  rec.deadline.reset();
  start_attempt(slot);
}

void OrbEndpoint::start_attempt(std::uint32_t slot) {
  CallRecord& rec = *calls_[slot];
  const InvokeOptions& options = rec.options;
  const TimePoint now = engine().now();
  const std::uint32_t request_id = next_request_id_++;

  // The end-to-end deadline becomes absolute on the first attempt, and an
  // attempt (a retry's, say) that starts past it dies before it pays
  // marshal cost.
  if (!rec.deadline && options.deadline) rec.deadline = now + *options.deadline;
  if (rec.deadline && now > *rec.deadline) {
    ++stats_.client_vetoed;
    // The call was vetoed before any cost was paid, but the application
    // still missed its deadline.
    ++stats_.deadline_missed;
    if (obs::TelemetryHub* th = engine().telemetry()) th->on_deadline_miss(options.flow, now);
    if (obs::TraceRecorder* tr = orb_tracer()) {
      tr->instant(obs::TraceCategory::Orb, "deadline.veto", obs_track_, now, 0,
                  {{"request_id", static_cast<double>(request_id)}});
    }
    // Vetoed invocations complete synchronously: no CPU or wire cost.
    ResponseCallback cb = std::move(rec.cb);
    const bool oneway = options.oneway;
    release_call(slot);
    if (!oneway && cb) cb(CompletionStatus::Timeout, {});
    return;
  }

  rec.request_id = request_id;
  rec.priority = options.priority.value_or(
      rec.ref.priority_model == PriorityModel::ServerDeclared ? rec.ref.server_priority
                                                               : client_priority_);
  const Duration cost = marshal_cost(rec.body.size() + rec.operation.size() + 64);

  // A traced request gets one end-to-end id here; it rides on every
  // fragment packet (Packet::trace), never in the message itself, so all
  // layers chain their events to this call and no wire byte depends on
  // whether a recorder is attached.
  rec.trace = 0;
  rec.span_name = nullptr;
  if (obs::TraceRecorder* tr = orb_tracer()) {
    rec.trace = tr->next_id();
    rec.span_name = span_name(*tr, rec.operation);
    tr->async_begin(obs::TraceCategory::Orb, rec.span_name, obs_track_, now, rec.trace,
                    {{"request_id", static_cast<double>(request_id)},
                     {"priority", static_cast<double>(rec.priority)}});
  }

  // Marshal on the client CPU at the native band the CORBA priority maps
  // to, then stamp and ship.
  cpu_.submit_for(cost, priority_mapping_.to_native(rec.priority),
                  [this, slot] { send_request(slot); });
}

void OrbEndpoint::send_request(std::uint32_t slot) {
  CallRecord& rec = *calls_[slot];
  const bool oneway = rec.options.oneway;
  const TimePoint now = engine().now();
  RequestHeader& header = request_scratch_;
  header.request_id = rec.request_id;
  header.response_expected = !oneway;
  header.object_key = rec.ref.object_key;
  header.operation = rec.operation;
  recycle_contexts(header.contexts, context_spare_);

  // The ORB's contexts: priority, send timestamp, deadline (if any). The
  // reference's protocol DSCP wins over the priority mapping.
  stamp_priority_context(header.contexts, rec.priority, &context_spare_);
  stamp_timestamp_context(header.contexts, now, &context_spare_);
  if (rec.deadline) stamp_deadline_context(header.contexts, *rec.deadline, &context_spare_);
  const net::Dscp dscp = rec.ref.protocol.dscp ? *rec.ref.protocol.dscp
                                               : dscp_mapping_.to_dscp(rec.priority);

  auto buf = pool_.acquire();
  encode_request(header, rec.body, *buf);
  pool_.note_message_size(buf->size());
  MessageBuffer bytes = CdrBufferPool::freeze(std::move(buf));
  ++stats_.requests_sent;
  const net::NodeId target = rec.ref.node;
  const bool collocated = target == node();
  if (collocated) ++stats_.collocated_calls;
  const net::FlowId flow = rec.options.flow;
  const std::uint64_t trace_id = rec.trace;
  if (obs::TraceRecorder* tr = orb_tracer()) {
    tr->instant(obs::TraceCategory::Orb, "send", obs_track_, now, trace_id,
                {{"bytes", static_cast<double>(bytes->size())}});
  }

  if (!oneway) {
    rec.sent_at = now;
    rec.timeout = engine().after(rec.options.timeout, [this, slot] { on_timeout(slot); });
    pending_.insert(rec.request_id, slot);
  } else {
    // Oneways have no reply; the client span closes at the send.
    if (trace_id != 0 && rec.span_name != nullptr) {
      if (obs::TraceRecorder* tr = orb_tracer()) {
        tr->async_end(obs::TraceCategory::Orb, rec.span_name, obs_track_, now, trace_id);
      }
    }
    release_call(slot);
  }

  if (collocated) {
    // Collocation optimization (TAO-style): the target lives in this
    // ORB, so the request short-circuits the transport entirely —
    // same marshaling and dispatch semantics, zero wire time.
    on_message(node(), MessageView(std::move(bytes), trace_id));
  } else {
    transport_.send_message(target, std::move(bytes), dscp, flow, trace_id);
  }
}

void OrbEndpoint::on_timeout(std::uint32_t slot) {
  CallRecord& rec = *calls_[slot];
  pending_.erase(rec.request_id);
  ++stats_.timeouts;
  ++stats_.deadline_missed;
  if (obs::TelemetryHub* th = engine().telemetry()) {
    th->on_deadline_miss(rec.options.flow, engine().now(), rec.trace);
  }
  if (rec.trace != 0 && rec.span_name != nullptr) {
    if (obs::TraceRecorder* tr = orb_tracer()) {
      tr->async_end(obs::TraceCategory::Orb, rec.span_name, obs_track_, engine().now(),
                    rec.trace, {{"timeout", 1.0}});
    }
  }
  complete_exception(slot, CompletionStatus::Timeout);
}

void OrbEndpoint::complete_exception(std::uint32_t slot, CompletionStatus status) {
  CallRecord& rec = *calls_[slot];
  const TimePoint now = engine().now();
  // Timeouts and transient errors retry with exponential backoff while
  // attempts remain and the backoff ends inside the deadline; hard
  // failures are final.
  std::optional<Duration> backoff;
  if (rec.attempt < rec.options.retry.max_attempts &&
      (status == CompletionStatus::Timeout || status == CompletionStatus::Transient)) {
    const Duration wait = rec.options.retry.backoff_after(rec.attempt);
    if (!rec.deadline || now + wait <= *rec.deadline) backoff = wait;
  }

  if (backoff) {
    ++stats_.retries;
    if (obs::TelemetryHub* th = engine().telemetry()) {
      th->on_retry(rec.options.flow, engine().now());
    }
    if (obs::TraceRecorder* tr = orb_tracer()) {
      tr->instant(obs::TraceCategory::Orb, "retry", obs_track_, engine().now(),
                  rec.trace,
                  {{"attempt", static_cast<double>(rec.attempt + 1)},
                   {"backoff_us", static_cast<double>(backoff->ns()) / 1e3}});
    }
    engine().after(*backoff, [this, slot] {
      ++calls_[slot]->attempt;
      start_attempt(slot);
    });
    return;
  }
  ResponseCallback cb = std::move(rec.cb);
  release_call(slot);
  if (cb) cb(status, {});
}

// --- server side -------------------------------------------------------------

void OrbEndpoint::on_message(net::NodeId src, const MessageView& msg) {
  // Decode into the endpoint scratch: batched traffic hands us views into a
  // shared batch buffer, and this path re-parses headers without allocating
  // once the scratch's strings/contexts/body are warm.
  try {
    decode_into(decode_scratch_, msg.bytes());
  } catch (const MarshalError& e) {
    AQM_WARN() << "orb@" << net_.node_name(node()) << ": dropping malformed GIOP ("
               << e.what() << ")";
    return;
  }
  if (decode_scratch_.type == GiopMsgType::Request) {
    handle_request(src, decode_scratch_, msg.size(), msg.trace());
  } else {
    handle_reply(decode_scratch_, msg.size());
  }
}

std::uint32_t OrbEndpoint::acquire_server_call(net::NodeId client, std::uint32_t request_id,
                                               std::uint64_t trace) {
  std::uint32_t slot;
  if (!free_server_calls_.empty()) {
    slot = free_server_calls_.back();
    free_server_calls_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(server_calls_.size());
    server_calls_.push_back(std::make_unique<ServerCall>());
  }
  ServerCall& call = *server_calls_[slot];
  call.req.client = client;
  call.req.reply_body.clear();
  call.request_id = request_id;
  call.trace = trace;
  call.replied = false;
  return slot;
}

void OrbEndpoint::release_server_call(std::uint32_t slot) {
  ServerCall& call = *server_calls_[slot];
  ++call.generation;  // outstanding Repliers for this request go stale
  call.servant.reset();
  call.poa = nullptr;
  call.req.replier = nullptr;
  free_server_calls_.push_back(slot);
}

void OrbEndpoint::handle_request(net::NodeId src, GiopMessage& msg, std::size_t wire_size,
                                 std::uint64_t trace) {
  RequestHeader& header = msg.request;

  // object_key = "<poa>/<object-id>"; demuxed through views into the key.
  const std::string_view key = header.object_key;
  const auto slash = key.find('/');
  Poa* poa = nullptr;
  std::shared_ptr<Servant> servant;
  if (slash != std::string_view::npos) {
    poa = find_poa(key.substr(0, slash));
    if (poa != nullptr) servant = poa->find(key.substr(slash + 1));
  }
  if (servant == nullptr) {
    AQM_DEBUG() << "orb@" << net_.node_name(node()) << ": no servant for key "
                << header.object_key;
    if (header.response_expected) {
      send_error_reply(acquire_server_call(src, header.request_id, 0),
                       CompletionStatus::ObjectNotExist, kDefaultCorbaPriority);
    }
    return;
  }

  // Resolve priority, send timestamp and deadline from the service
  // contexts; an expired deadline rejects the request before any
  // thread-pool or servant work is spent on it.
  CorbaPriority priority = kDefaultCorbaPriority;
  std::optional<TimePoint> client_send_time;
  std::optional<TimePoint> deadline;
  try {
    priority = find_priority(header.contexts).value_or(kDefaultCorbaPriority);
    client_send_time = find_timestamp(header.contexts);
    deadline = find_deadline(header.contexts);
  } catch (const MarshalError& e) {
    // A truncated context body is as malformed as an undecodable message.
    AQM_WARN() << "orb@" << net_.node_name(node()) << ": dropping malformed GIOP ("
               << e.what() << ")";
    return;
  }
  if (poa->policies().priority_model == PriorityModel::ServerDeclared) {
    priority = poa->policies().server_priority;
  }
  if (deadline && engine().now() > *deadline) {
    // Rejected with the status the client retries as a timeout.
    ++stats_.server_vetoed;
    if (obs::TraceRecorder* tr = orb_tracer()) {
      tr->instant(obs::TraceCategory::Orb, "deadline.veto", obs_track_, engine().now(), trace,
                  {{"request_id", static_cast<double>(header.request_id)},
                   {"status", static_cast<double>(CompletionStatus::Timeout)}});
    }
    if (header.response_expected) {
      send_error_reply(acquire_server_call(src, header.request_id, trace),
                       CompletionStatus::Timeout, priority);
    }
    return;
  }

  if (src == node()) ++poa->dispatch_stats().collocated;

  const std::uint32_t slot = acquire_server_call(src, header.request_id, trace);
  ServerCall& call = *server_calls_[slot];
  ServerRequest& req = call.req;
  // Swap rather than move: the scratch keeps a buffer to decode into next.
  req.operation.swap(header.operation);
  req.body.swap(msg.body);
  req.priority = priority;
  req.client_send_time = client_send_time;
  req.handled_at = TimePoint{};
  req.deferred_ = false;
  call.servant = std::move(servant);
  call.poa = poa;
  call.response_expected = header.response_expected;
  call.dispatch_priority = priority;

  // Reply channel, usable synchronously (after handle() returns) or
  // asynchronously via ServerRequest::defer(). Answers at most once: the
  // generation check makes a repeated or late call a no-op.
  if (call.response_expected) {
    req.replier = [this, slot, generation = call.generation](std::vector<std::uint8_t> body) {
      deferred_reply(slot, generation, std::move(body));
    };
  }

  const Duration cost = demarshal_cost(wire_size) + call.servant->cpu_cost(req);
  const bool accepted =
      poa->thread_pool().dispatch(priority, cost, [this, slot] { run_servant(slot); });
  if (!accepted) {
    ++stats_.dispatch_rejected;
    ++poa->dispatch_stats().rejected;
    if (obs::TraceRecorder* tr = orb_tracer()) {
      tr->instant(obs::TraceCategory::Orb, "dispatch.reject", obs_track_,
                  engine().now(), trace,
                  {{"priority", static_cast<double>(priority)}});
    }
    if (call.response_expected) {
      send_error_reply(slot, CompletionStatus::Transient, priority);
    } else {
      release_server_call(slot);
    }
  }
}

void OrbEndpoint::run_servant(std::uint32_t slot) {
  ServerCall& call = *server_calls_[slot];
  ServerRequest& req = call.req;
  ++stats_.requests_dispatched;
  ++call.poa->dispatch_stats().dispatched;
  req.handled_at = engine().now();
  obs::TraceRecorder* tr = orb_tracer();
  if (tr != nullptr) {
    tr->instant(obs::TraceCategory::Orb, "dispatch", obs_track_, engine().now(), call.trace,
                {{"request_id", static_cast<double>(call.request_id)},
                 {"priority", static_cast<double>(req.priority)}});
    // Make the request's trace ambient while the servant runs, so
    // downstream effects (syscond updates, contract transitions,
    // reservations) chain their events to this request.
    tr->set_current(call.trace);
  }
  if (call.trace != 0) last_dispatch_trace_ = call.trace;
  std::optional<CompletionStatus> error;
  try {
    call.servant->handle(req);
  } catch (const ObjectNotExist&) {
    error = CompletionStatus::ObjectNotExist;
  } catch (const Transient&) {
    error = CompletionStatus::Transient;
  } catch (const SystemException&) {
    error = CompletionStatus::SystemError;
  }
  if (tr != nullptr) tr->set_current(0);
  if (!call.response_expected) {
    release_server_call(slot);
    return;
  }
  if (!error) {
    // Deferred: the servant's replier answers later and releases the record.
    if (!req.deferred()) {
      call.replied = true;
      send_reply(slot, ReplyStatus::NoException, call.dispatch_priority);
    }
  } else if (!call.replied) {
    // Exceptions answer immediately, deferred or not.
    call.replied = true;
    send_error_reply(slot, *error, req.priority);
  }
}

void OrbEndpoint::deferred_reply(std::uint32_t slot, std::uint32_t generation,
                                 std::vector<std::uint8_t> body) {
  ServerCall& call = *server_calls_[slot];
  if (call.generation != generation || call.replied) return;
  call.replied = true;
  call.req.reply_body.swap(body);
  send_reply(slot, ReplyStatus::NoException, call.dispatch_priority);
}

void OrbEndpoint::send_error_reply(std::uint32_t slot, CompletionStatus status,
                                   CorbaPriority priority) {
  encode_error_body(status, server_calls_[slot]->req.reply_body);
  send_reply(slot, ReplyStatus::SystemException, priority);
}

void OrbEndpoint::send_reply(std::uint32_t slot, ReplyStatus status, CorbaPriority priority) {
  ServerCall& call = *server_calls_[slot];
  call.replied = true;
  call.reply_status = status;
  call.reply_priority = priority;
  const os::Priority native = priority_mapping_.to_native(priority);
  const Duration cost = marshal_cost(call.req.reply_body.size() + 32);
  cpu_.submit_for(cost, native, [this, slot] { marshal_reply(slot); });
}

void OrbEndpoint::marshal_reply(std::uint32_t slot) {
  ServerCall& call = *server_calls_[slot];
  ReplyHeader& header = reply_scratch_;
  header.request_id = call.request_id;
  header.status = call.reply_status;

  // Replies carry no service context: the client reads none. The egress
  // DSCP derives from the reply priority.
  const net::Dscp dscp = dscp_mapping_.to_dscp(call.reply_priority);

  auto buf = pool_.acquire();
  encode_reply(header, call.req.reply_body, *buf);
  pool_.note_message_size(buf->size());
  MessageBuffer bytes = CdrBufferPool::freeze(std::move(buf));
  if (obs::TraceRecorder* tr = orb_tracer()) {
    tr->instant(obs::TraceCategory::Orb, "reply.send", obs_track_, engine().now(),
                call.trace, {{"bytes", static_cast<double>(bytes->size())}});
  }
  const net::NodeId client = call.req.client;
  const std::uint64_t trace = call.trace;
  release_server_call(slot);
  transport_.send_message(client, std::move(bytes), dscp, net::kNoFlow, trace);
}

void OrbEndpoint::handle_reply(GiopMessage& msg, std::size_t wire_size) {
  const std::uint32_t slot = pending_.find(msg.reply.request_id);
  if (slot == kNoSlot) return;  // late reply after timeout: drop
  pending_.erase(msg.reply.request_id);
  CallRecord& rec = *calls_[slot];
  engine().cancel(rec.timeout);
  rec.reply_status = msg.reply.status;
  rec.reply_body.swap(msg.body);

  const os::Priority native = priority_mapping_.to_native(rec.priority);
  const Duration cost = demarshal_cost(wire_size);
  if (obs::TraceRecorder* tr = orb_tracer()) {
    tr->instant(obs::TraceCategory::Orb, "reply.recv", obs_track_, engine().now(), rec.trace,
                {{"bytes", static_cast<double>(wire_size)}});
  }
  cpu_.submit_for(cost, native, [this, slot] { finish_reply(slot); });
}

void OrbEndpoint::finish_reply(std::uint32_t slot) {
  CallRecord& rec = *calls_[slot];
  const bool ok = rec.reply_status == ReplyStatus::NoException;
  // The client call span closes once the reply is demarshaled —
  // end-to-end latency as the app sees it.
  if (rec.trace != 0 && rec.span_name != nullptr) {
    if (obs::TraceRecorder* tr = orb_tracer()) {
      tr->async_end(obs::TraceCategory::Orb, rec.span_name, obs_track_, engine().now(),
                    rec.trace, {{"ok", ok ? 1.0 : 0.0}});
    }
  }
  if (!ok) {
    ++stats_.replies_error;
    complete_exception(slot, decode_error_body(rec.reply_body));
    return;
  }
  ++stats_.replies_ok;
  if (obs::TelemetryHub* th = engine().telemetry()) {
    th->on_call(rec.options.flow, engine().now(), (engine().now() - rec.sent_at).millis(),
                rec.trace);
  }
  // A non-empty body goes to the caller by value (the public callback
  // signature), and the record's buffer with it; an empty one keeps it.
  ResponseCallback cb = std::move(rec.cb);
  std::vector<std::uint8_t> body;
  if (!rec.reply_body.empty()) body.swap(rec.reply_body);
  release_call(slot);
  cb(CompletionStatus::Ok, std::move(body));
}

// --- ObjectStub --------------------------------------------------------------

void ObjectStub::invoke_with_binding(const std::string& operation,
                                     std::vector<std::uint8_t> body, bool oneway,
                                     OrbEndpoint::ResponseCallback cb, Duration timeout) {
  InvokeOptions options;
  options.oneway = oneway;
  options.timeout = timeout;
  options.flow = flow_;
  options.priority = priority_;
  options.deadline = deadline_;
  options.retry = retry_;
  orb_->invoke(ref_, operation, std::move(body), std::move(options), std::move(cb));
}

void ObjectStub::oneway(const std::string& operation, std::vector<std::uint8_t> body) {
  invoke_with_binding(operation, std::move(body), /*oneway=*/true, nullptr, seconds(2));
}

void ObjectStub::twoway(const std::string& operation, std::vector<std::uint8_t> body,
                        OrbEndpoint::ResponseCallback cb, Duration timeout) {
  invoke_with_binding(operation, std::move(body), /*oneway=*/false, std::move(cb),
                      timeout);
}

}  // namespace aqm::orb
