#include "core/qos_policy_interceptor.hpp"

#include "orb/orb.hpp"

namespace aqm::core {

QosPolicyInterceptor& QosPolicyInterceptor::install(orb::OrbEndpoint& orb) {
  if (QosPolicyInterceptor* existing = find(orb)) return *existing;
  return static_cast<QosPolicyInterceptor&>(
      orb.add_client_interceptor(std::make_unique<QosPolicyInterceptor>()));
}

QosPolicyInterceptor* QosPolicyInterceptor::find(orb::OrbEndpoint& orb) {
  return static_cast<QosPolicyInterceptor*>(orb.find_client_interceptor(kName));
}

Key128 QosPolicyInterceptor::index_key(net::NodeId node, std::string_view object_key) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (const char c : object_key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return Key128{static_cast<std::uint32_t>(node), h};
}

void QosPolicyInterceptor::bind(net::NodeId node, std::string object_key,
                                EndToEndQosPolicy policy) {
  // Re-stamp in place when the binding exists: the binding (and its
  // object-key string) is reused, so a live policy change allocates
  // nothing after the first bind.
  if (rebind(node, object_key, policy)) return;
  std::uint32_t slot;
  if (!free_bindings_.empty()) {
    slot = free_bindings_.back();
    free_bindings_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(bindings_.size());
    bindings_.push_back(std::make_unique<Binding>());
  }
  Binding& b = *bindings_[slot];
  b.node = node;
  b.object_key = std::move(object_key);
  b.state = QosBindingState{std::move(policy), 1};
  b.banded = orb::rt::BandedDscpMapping{};
  b.next = kNoSlot;
  const Key128 key = index_key(node, b.object_key);
  std::uint32_t i = index_.find(key);
  if (i == kNoSlot) {
    index_.insert(key, slot);
    return;
  }
  while (bindings_[i]->next != kNoSlot) i = bindings_[i]->next;
  bindings_[i]->next = slot;
}

bool QosPolicyInterceptor::rebind(net::NodeId node, std::string_view object_key,
                                  const EndToEndQosPolicy& policy) {
  Binding* b = lookup_mut(node, object_key);
  if (b == nullptr) return false;
  b->state.policy = policy;
  ++b->state.version;
  return true;
}

void QosPolicyInterceptor::unbind(net::NodeId node, std::string_view object_key) {
  const Key128 key = index_key(node, object_key);
  std::uint32_t prev = kNoSlot;
  for (std::uint32_t i = index_.find(key); i != kNoSlot; prev = i, i = bindings_[i]->next) {
    Binding& b = *bindings_[i];
    if (b.node != node || b.object_key != object_key) continue;
    if (prev != kNoSlot) {
      bindings_[prev]->next = b.next;
    } else {
      index_.erase(key);
      if (b.next != kNoSlot) index_.insert(key, b.next);
    }
    free_bindings_.push_back(i);
    return;
  }
}

const QosPolicyInterceptor::Binding* QosPolicyInterceptor::lookup(
    net::NodeId node, std::string_view object_key) const {
  for (std::uint32_t i = index_.find(index_key(node, object_key)); i != kNoSlot;
       i = bindings_[i]->next) {
    const Binding& b = *bindings_[i];
    if (b.node == node && b.object_key == object_key) return &b;
  }
  return nullptr;
}

QosPolicyInterceptor::Binding* QosPolicyInterceptor::lookup_mut(
    net::NodeId node, std::string_view object_key) {
  return const_cast<Binding*>(lookup(node, object_key));
}

const EndToEndQosPolicy* QosPolicyInterceptor::binding(net::NodeId node,
                                                       std::string_view object_key) const {
  const Binding* b = lookup(node, object_key);
  return b == nullptr ? nullptr : &b->state.policy;
}

const QosBindingState* QosPolicyInterceptor::binding_state(
    net::NodeId node, std::string_view object_key) const {
  const Binding* b = lookup(node, object_key);
  return b == nullptr ? nullptr : &b->state;
}

std::optional<net::Dscp> QosPolicyInterceptor::effective_dscp(
    net::NodeId node, std::string_view object_key, orb::CorbaPriority priority) const {
  const Binding* b = lookup(node, object_key);
  if (b == nullptr) return std::nullopt;
  if (b->state.policy.explicit_dscp) return *b->state.policy.explicit_dscp;
  if (b->state.policy.map_priority_to_dscp) return b->banded.to_dscp(priority);
  return std::nullopt;
}

orb::InterceptStatus QosPolicyInterceptor::establish(orb::ClientRequestContext& ctx) {
  // Reads the binding's *current* versioned state on every invocation —
  // a control-plane re-stamp between two calls is visible to the second
  // call with no rebinding and no captured constants anywhere downstream.
  const Binding* b = lookup(ctx.ref->node, ctx.ref->object_key);
  if (b == nullptr) return {};
  const EndToEndQosPolicy& policy = b->state.policy;
  // An explicit per-invocation priority (InvokeOptions / stub override)
  // wins over the binding policy.
  const bool caller_pinned = ctx.options != nullptr && ctx.options->priority.has_value();
  if (policy.priority && !caller_pinned) ctx.priority = *policy.priority;
  if (policy.explicit_dscp) {
    ctx.dscp_override = *policy.explicit_dscp;
  } else if (policy.map_priority_to_dscp) {
    ctx.dscp_override = b->banded.to_dscp(ctx.priority);
  }
  if (policy.flow && ctx.flow == net::kNoFlow) ctx.flow = *policy.flow;
  // Policy deadline: a caller-pinned deadline (InvokeOptions or an earlier
  // interceptor) wins; otherwise the ORB stamps the absolute deadline set
  // here.
  const bool caller_deadline =
      ctx.deadline.has_value() ||
      (ctx.options != nullptr && ctx.options->deadline.has_value());
  if (policy.deadline && !caller_deadline) ctx.deadline = ctx.now + *policy.deadline;
  return {};
}

}  // namespace aqm::core
