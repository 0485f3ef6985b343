// QuO delegates.
//
// "Delegates are proxies that can be inserted into the path of object
// interactions transparently, but with woven in QoS aware and adaptive
// code. When a method call or return is made, the delegate checks the
// system state, as recorded by a set of contracts, and selects a behavior
// based upon it."
//
// A Delegate wraps an ObjectStub and weaves its in-band behaviors into the
// client ORB's invocations: constructing one installs a per-target
// registration on the client ORB's "quo.delegate" interceptor, so the
// pre-invoke behavior (drop / rewrite / annotate) and the contract gate run
// in the establish phase for EVERY invocation of the target — including
// calls made through other stubs — before any marshal cost is paid.
// Dropped invocations complete with CompletionStatus::Transient. Frame
// filtering in the video pipeline is a pre-invoke behavior; region-based
// call gating (gate_on_contract) is the contract-driven one.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "orb/interceptor.hpp"
#include "orb/orb.hpp"
#include "quo/contract.hpp"

namespace aqm::quo {

class Delegate;

/// Decision made by a pre-invoke behavior.
enum class CallAction : std::uint8_t {
  Proceed,  // forward the (possibly rewritten) call
  Drop,     // suppress the call (completes with Transient)
};

/// Interceptor half of the QuO delegate layer: one instance per client ORB
/// (find-or-install by name) routing the establish phase to the Delegate
/// registered for the invocation's target reference.
class DelegateInterceptor final : public orb::ClientRequestInterceptor {
 public:
  static constexpr const char* kName = "quo.delegate";

  [[nodiscard]] const char* name() const override { return kName; }

  static DelegateInterceptor& install(orb::OrbEndpoint& orb);
  [[nodiscard]] static DelegateInterceptor* find(orb::OrbEndpoint& orb);

  void bind(net::NodeId node, std::string object_key, Delegate* delegate);
  void unbind(net::NodeId node, std::string_view object_key);

  orb::InterceptStatus establish(orb::ClientRequestContext& ctx) override;

 private:
  std::map<net::NodeId, std::map<std::string, Delegate*, std::less<>>> bindings_;
};

class Delegate {
 public:
  /// May inspect/rewrite the operation's body; returns whether to forward.
  using PreInvoke = std::function<CallAction(const std::string& op,
                                             std::vector<std::uint8_t>& body)>;
  /// Observes replies (after the ORB's completion callback fires).
  using PostInvoke =
      std::function<void(const std::string& op, orb::CompletionStatus status)>;

  explicit Delegate(orb::ObjectStub stub);
  ~Delegate();
  Delegate(const Delegate&) = delete;
  Delegate& operator=(const Delegate&) = delete;

  [[nodiscard]] orb::ObjectStub& stub() { return stub_; }

  void set_pre_invoke(PreInvoke hook) { pre_ = std::move(hook); }
  void set_post_invoke(PostInvoke hook) { post_ = std::move(hook); }

  /// Contract-driven gating: invocations of the target proceed only while
  /// `contract` is in `allowed_region`; anywhere else they are dropped in
  /// the establish phase. The contract must outlive the delegate.
  void gate_on_contract(Contract& contract, std::string allowed_region);
  void clear_contract_gate();

  void oneway(const std::string& operation, std::vector<std::uint8_t> body);
  void twoway(const std::string& operation, std::vector<std::uint8_t> body,
              orb::OrbEndpoint::ResponseCallback cb, Duration timeout = seconds(2));

  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  friend class DelegateInterceptor;
  /// Establish-phase entry, invoked by the ORB's delegate interceptor.
  orb::InterceptStatus run_establish(orb::ClientRequestContext& ctx);

  orb::ObjectStub stub_;
  Contract* gate_contract_ = nullptr;
  std::string gate_region_;
  PreInvoke pre_;
  PostInvoke post_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace aqm::quo
