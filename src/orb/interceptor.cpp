#include "orb/interceptor.hpp"

#include "net/flow_classifier.hpp"
#include "orb/orb.hpp"
#include "orb/poa.hpp"

namespace aqm::orb {

// --- rt.priority -----------------------------------------------------------

InterceptStatus PriorityInterceptor::establish(ClientRequestContext& ctx) {
  // Priority->native mapping: the marshal job is scheduled at this band.
  // Runs after user/policy interceptors, so ctx.priority is final here.
  ctx.native_priority = orb_.priority_mappings().to_native(ctx.priority);
  return {};
}

InterceptStatus PriorityInterceptor::send_request(ClientRequestContext& ctx) {
  stamp_priority_context(*ctx.contexts, ctx.priority, ctx.context_spare);
  return {};
}

InterceptStatus PriorityInterceptor::receive_request(ServerRequestContext& ctx) {
  ctx.priority = ctx.poa->policies().priority_model == PriorityModel::ServerDeclared
                     ? ctx.poa->policies().server_priority
                     : find_priority(*ctx.contexts).value_or(kDefaultCorbaPriority);
  return {};
}

InterceptStatus PriorityInterceptor::send_reply(ServerRequestContext& ctx) {
  stamp_priority_context(*ctx.reply_contexts, ctx.priority, ctx.context_spare);
  return {};
}

// --- obs.timestamp ---------------------------------------------------------

InterceptStatus TimestampInterceptor::send_request(ClientRequestContext& ctx) {
  stamp_timestamp_context(*ctx.contexts, ctx.now, ctx.context_spare);
  return {};
}

InterceptStatus TimestampInterceptor::receive_request(ServerRequestContext& ctx) {
  ctx.client_send_time = find_timestamp(*ctx.contexts);
  return {};
}

InterceptStatus TimestampInterceptor::send_reply(ServerRequestContext& ctx) {
  stamp_timestamp_context(*ctx.reply_contexts, ctx.now, ctx.context_spare);
  return {};
}

// --- obs.trace -------------------------------------------------------------

InterceptStatus TraceInterceptor::send_request(ClientRequestContext& ctx) {
  if (ctx.trace_id != 0) stamp_trace_context(*ctx.contexts, ctx.trace_id, ctx.context_spare);
  return {};
}

InterceptStatus TraceInterceptor::receive_request(ServerRequestContext& ctx) {
  ctx.trace = find_trace(*ctx.contexts).value_or(0);
  return {};
}

InterceptStatus TraceInterceptor::send_reply(ServerRequestContext& ctx) {
  if (ctx.trace != 0) stamp_trace_context(*ctx.reply_contexts, ctx.trace, ctx.context_spare);
  return {};
}

// --- rt.deadline (client) --------------------------------------------------

InterceptStatus DeadlineRetryInterceptor::establish(ClientRequestContext& ctx) {
  if (!ctx.deadline && ctx.options != nullptr && ctx.options->deadline) {
    ctx.deadline = ctx.now + *ctx.options->deadline;
  }
  // A retry can be scheduled past the deadline; kill it before it pays
  // marshal cost.
  if (ctx.deadline && ctx.now > *ctx.deadline) return veto(CompletionStatus::Timeout);
  return {};
}

InterceptStatus DeadlineRetryInterceptor::send_request(ClientRequestContext& ctx) {
  if (ctx.deadline) stamp_deadline_context(*ctx.contexts, *ctx.deadline, ctx.context_spare);
  return {};
}

void DeadlineRetryInterceptor::receive_exception(ClientRequestContext& ctx) {
  if (ctx.status != CompletionStatus::Timeout &&
      ctx.status != CompletionStatus::Transient) {
    return;  // hard failures are not retryable
  }
  if (!ctx.retry.enabled() || ctx.attempt >= ctx.retry.max_attempts) return;
  const Duration backoff = ctx.retry.backoff_after(ctx.attempt);
  if (ctx.deadline && ctx.now + backoff > *ctx.deadline) return;
  ctx.request_retry(backoff);
}

// --- rt.deadline (server) --------------------------------------------------

InterceptStatus DeadlineDropInterceptor::receive_request(ServerRequestContext& ctx) {
  ctx.deadline = find_deadline(*ctx.contexts);
  if (ctx.deadline && ctx.now > *ctx.deadline) {
    // Expired before any servant work: reject with the status the client's
    // retry interceptor understands as a (retryable) timeout.
    return veto(CompletionStatus::Timeout);
  }
  return {};
}

// --- rt.dscp ---------------------------------------------------------------

InterceptStatus DscpInterceptor::send_request(ClientRequestContext& ctx) {
  if (ctx.dscp_override) {
    ctx.dscp = *ctx.dscp_override;
  } else if (ctx.ref->protocol.dscp) {
    ctx.dscp = *ctx.ref->protocol.dscp;
  } else {
    ctx.dscp = orb_.dscp_mappings().to_dscp(ctx.priority);
  }
  return {};
}

InterceptStatus DscpInterceptor::send_reply(ServerRequestContext& ctx) {
  // Replies inherit the priority-derived DSCP.
  ctx.reply_dscp = orb_.dscp_mappings().to_dscp(ctx.priority);
  return {};
}

// --- net.flow --------------------------------------------------------------

InterceptStatus FlowClassificationInterceptor::send_request(ClientRequestContext& ctx) {
  if (net::FlowClassifier* classifier = orb_.flow_classifier()) {
    ctx.flow = classifier->classify(orb_.node(), ctx.ref->node, ctx.dscp, ctx.flow);
  }
  return {};
}

}  // namespace aqm::orb
