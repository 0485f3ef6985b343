// Runtime QoS control plane (DESIGN.md §13).
//
// 1. Override mechanics: merge_override semantics, live re-stamps through
//    QosControlPlane (stub writes, no session restart), the clear path,
//    idempotence, the remote QosControlClient round-trip, and the refusal
//    of an override whose deadline or batching flush deadline is negative.
// 2. Zero-alloc steady state: repeated re-stamps of the per-invocation
//    knobs (priority / DSCP / deadline) through both QoSSession::apply
//    and the control plane perform no heap allocation once warmed up,
//    verified by counting global operator new.
// 3. Revoke safety: revoking while RSVP signaling is in flight releases
//    the late reservation instead of leaking it, a partial apply tears
//    down only the stages that applied, and a never-applied session's
//    revoke cannot wipe another session's binding.
// 4. Differential oracle: randomized override churn (override_flow /
//    clear_override) must be observably identical to tearing the session
//    down and rebinding with the merged policy at every step.
// 5. Feedback epochs: deterministic epoch grid, equal division of the
//    link-rate pool at zero deficit, and the hysteresis dead zone.
// 6. Flash crowd: under the static policy the SLO breach is sustained;
//    with the FeedbackScheduler the flow breaches and then recovers while
//    the crowd is still arriving.
#include "core/qos_control_plane.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <random>
#include <vector>

#include "common/flash_crowd.hpp"
#include "common/policy_builder.hpp"
#include "core/feedback_scheduler.hpp"
#include "core/qos_session.hpp"
#include "core/testbed.hpp"
#include "net/dscp.hpp"
#include "net/queue.hpp"
#include "obs/telemetry.hpp"
#include "orb/orb.hpp"
#include "orb/servant.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

// --- counting allocator ------------------------------------------------------

namespace {
std::uint64_t g_heap_allocs = 0;
}  // namespace

// The plain new/delete pair stays out of line and every other form forwards
// to it: callers then see operator new matched with operator delete, never
// an inlined malloc() meeting a delete (or a new meeting a free()).
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_heap_allocs;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace aqm::core {
namespace {

TEST(MergeOverride, EngagedFieldsReplaceDisengagedKeepBase) {
  EndToEndQosPolicy base;
  base.flow = kFlowVideo;
  base.priority = 10'000;
  base.explicit_dscp = net::dscp::kAf11;
  base.network_reservation = net::FlowSpec{2e6, 40'000};

  PolicyOverride ov;
  EXPECT_FALSE(ov.any());
  ov.priority = 25'000;
  ov.deadline = milliseconds(8);
  EXPECT_TRUE(ov.any());

  const EndToEndQosPolicy merged = merge_override(base, ov);
  EXPECT_EQ(merged.priority, 25'000);                        // engaged: replaced
  EXPECT_EQ(merged.deadline, milliseconds(8));               // engaged: added
  EXPECT_EQ(merged.explicit_dscp, net::dscp::kAf11);         // disengaged: kept
  EXPECT_EQ(merged.flow, base.flow);                         // never overridden
  EXPECT_EQ(merged.network_reservation, base.network_reservation);
  // An empty override merges to exactly the base policy.
  EXPECT_EQ(merge_override(base, PolicyOverride{}), base);
}

struct ControlPlaneFixture : public ::testing::Test {
  ControlPlaneFixture()
      : bed(ReservationTestbedParams{}),
        app_poa(&bed.receiver_orb.create_poa("app")),
        ctrl_poa(&bed.sender_orb.create_poa("ctrl")),
        plane(*ctrl_poa) {
    auto servant = std::make_shared<orb::FunctionServant>(
        microseconds(100), [](orb::ServerRequest&) {});
    target = app_poa->activate_object("target", std::move(servant));
    stub = std::make_unique<orb::ObjectStub>(bed.sender_orb, target);
    stub->set_flow(kFlowVideo);
  }

  ReservationTestbed bed;
  orb::Poa* app_poa;
  orb::Poa* ctrl_poa;
  QosControlPlane plane;
  orb::ObjectRef target;
  std::unique_ptr<orb::ObjectStub> stub;
};

TEST_F(ControlPlaneFixture, OverrideRestampsLiveBindingWithoutRestart) {
  QoSSession session(bed.sender_orb, *stub);
  session.apply(bench::PolicyBuilder::sender(kFlowVideo, 10'000));
  plane.manage(kFlowVideo, session);
  ASSERT_TRUE(plane.manages(kFlowVideo));

  EXPECT_EQ(stub->priority(), 10'000);

  PolicyOverride ov;
  ov.priority = 22'000;
  ov.dscp = net::dscp::kEf;
  ov.deadline = milliseconds(5);
  ASSERT_TRUE(plane.override_flow(kFlowVideo, ov).ok());

  // The new knobs are live on the same stub — the next invocation carries
  // them with no rebind and no session restart.
  EXPECT_EQ(stub->priority(), 22'000);
  EXPECT_EQ(stub->ref().protocol.dscp, net::dscp::kEf);
  EXPECT_EQ(stub->deadline(), milliseconds(5));
  EXPECT_EQ(session.active_policy().priority, 22'000);
  ASSERT_NE(plane.active_override(kFlowVideo), nullptr);
  EXPECT_EQ(*plane.active_override(kFlowVideo), ov);

  // clear_override restores the base policy through the same re-stamp.
  ASSERT_TRUE(plane.clear_override(kFlowVideo).ok());
  EXPECT_EQ(stub->priority(), 10'000);
  EXPECT_FALSE(stub->ref().protocol.dscp.has_value());
  EXPECT_FALSE(stub->deadline().has_value());
  EXPECT_EQ(plane.active_override(kFlowVideo), nullptr);

  // Clearing again is idempotent: nothing is written, so a value pinned
  // on the stub in between survives.
  stub->set_priority(1'000);
  ASSERT_TRUE(plane.clear_override(kFlowVideo).ok());
  EXPECT_EQ(stub->priority(), 1'000);

  // Unknown flows are an error, not a crash.
  EXPECT_FALSE(plane.override_flow(kFlowSender1, ov).ok());
  EXPECT_FALSE(plane.clear_override(kFlowSender1).ok());
  plane.unmanage(kFlowVideo);
  EXPECT_FALSE(plane.manages(kFlowVideo));
}

TEST_F(ControlPlaneFixture, RemoteOverrideRoundTrip) {
  QoSSession session(bed.sender_orb, *stub);
  session.apply(bench::PolicyBuilder::sender(kFlowVideo, 10'000));
  plane.manage(kFlowVideo, session);

  // The controller lives on another host and drives the sender's control
  // plane over CORBA.
  QosControlClient controller(bed.receiver_orb, plane.ref());
  PolicyOverride ov;
  ov.priority = 30'000;
  ov.server_cpu_reserve = os::ReserveSpec{milliseconds(10), milliseconds(100), true};
  ov.network_reservation = net::FlowSpec{1.5e6, 32'000};
  ov.oneway_batching = orb::BatchPolicy{8 * 1024, 16, microseconds(250)};

  std::optional<Status<std::string>> outcome;
  controller.override_flow(kFlowVideo, ov,
                           [&](Status<std::string> s) { outcome = std::move(s); });
  bed.engine.run_until(TimePoint{seconds(2).ns()});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok());
  // The override decoded losslessly on the far side (every payload field
  // survived the CDR trip) and re-stamped the live session.
  ASSERT_NE(plane.active_override(kFlowVideo), nullptr);
  EXPECT_EQ(*plane.active_override(kFlowVideo), ov);
  EXPECT_EQ(session.active_policy().priority, 30'000);
  EXPECT_EQ(session.active_policy().oneway_batching, ov.oneway_batching);

  outcome.reset();
  controller.clear_override(kFlowVideo,
                            [&](Status<std::string> s) { outcome = std::move(s); });
  bed.engine.run_until(TimePoint{seconds(4).ns()});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok());
  EXPECT_EQ(plane.active_override(kFlowVideo), nullptr);
  EXPECT_EQ(session.active_policy().priority, 10'000);

  // An unmanaged flow's error text crosses the wire too.
  outcome.reset();
  controller.override_flow(kFlowCross, ov,
                           [&](Status<std::string> s) { outcome = std::move(s); });
  bed.engine.run_until(TimePoint{seconds(6).ns()});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok());
  EXPECT_NE(outcome->error().find("not under control-plane management"),
            std::string::npos);
}

TEST_F(ControlPlaneFixture, RemoteOverrideWithNegativeFlushDeadlineIsRejected) {
  QoSSession session(bed.sender_orb, *stub);
  session.apply(bench::PolicyBuilder::sender(kFlowVideo, 10'000));
  plane.manage(kFlowVideo, session);

  // A flush deadline below zero would schedule the batch flush before the
  // engine's clock on the flow's next oneway.
  QosControlClient controller(bed.receiver_orb, plane.ref());
  PolicyOverride ov;
  ov.priority = 30'000;
  ov.oneway_batching = orb::BatchPolicy{8 * 1024, 16, microseconds(-250)};
  std::optional<Status<std::string>> outcome;
  controller.override_flow(kFlowVideo, ov,
                           [&](Status<std::string> s) { outcome = std::move(s); });
  bed.engine.run_until(TimePoint{seconds(2).ns()});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok());
  EXPECT_NE(outcome->error().find("flush deadline"), std::string::npos);
  // The live policy is untouched, the rest of the override included.
  EXPECT_FALSE(session.active_policy().oneway_batching.has_value());
  EXPECT_EQ(session.active_policy().priority, 10'000);
  EXPECT_EQ(plane.active_override(kFlowVideo), nullptr);
}

// The client's one reply path, shared with the CPU reservation client:
// each failure reaches the callback as an error with a fixed text.
TEST_F(ControlPlaneFixture, RemoteCallFailuresReachTheCallbackAsErrors) {
  PolicyOverride ov;
  ov.priority = 30'000;
  std::optional<Status<std::string>> overridden;
  std::optional<Status<std::string>> cleared;

  // A non-Ok completion: the control plane's POA holds no such object.
  orb::ObjectRef missing = plane.ref();
  missing.object_key = "ctrl/no_such_control";
  QosControlClient orphan(bed.receiver_orb, missing);
  orphan.override_flow(kFlowVideo, ov,
                       [&](Status<std::string> s) { overridden = std::move(s); });
  orphan.clear_override(kFlowVideo, [&](Status<std::string> s) { cleared = std::move(s); });
  orphan.clear_override(kFlowVideo);  // no callback: the reply is ignored
  bed.engine.run_until(TimePoint{seconds(2).ns()});
  ASSERT_TRUE(overridden && cleared);
  ASSERT_FALSE(overridden->ok());
  EXPECT_EQ(overridden->error(), "rpc failed: OBJECT_NOT_EXIST");
  ASSERT_FALSE(cleared->ok());
  EXPECT_EQ(cleared->error(), "rpc failed: OBJECT_NOT_EXIST");

  // An undecodable reply: a servant under the control plane's object id
  // that answers one byte (false, then no error string).
  orb::Poa& rogue_poa = bed.sender_orb.create_poa("rogue");
  const orb::ObjectRef rogue_ref = rogue_poa.activate_object(
      kQosControlObjectId,
      std::make_shared<orb::FunctionServant>(
          microseconds(30), [](orb::ServerRequest& req) { req.reply_body = {0}; }));
  QosControlClient rogue(bed.receiver_orb, rogue_ref);
  overridden.reset();
  cleared.reset();
  rogue.override_flow(kFlowVideo, ov,
                      [&](Status<std::string> s) { overridden = std::move(s); });
  rogue.clear_override(kFlowVideo, [&](Status<std::string> s) { cleared = std::move(s); });
  bed.engine.run_until(TimePoint{seconds(4).ns()});
  ASSERT_TRUE(overridden && cleared);
  ASSERT_FALSE(overridden->ok());
  EXPECT_EQ(overridden->error(), "MARSHAL: CDR buffer underrun");
  ASSERT_FALSE(cleared->ok());
  EXPECT_EQ(cleared->error(), "MARSHAL: CDR buffer underrun");
}

TEST_F(ControlPlaneFixture, OverrideWithNegativeDeadlineIsRejected) {
  QoSSession session(bed.sender_orb, *stub);
  session.apply(bench::PolicyBuilder::sender(kFlowVideo, 10'000).deadline(milliseconds(20)));
  plane.manage(kFlowVideo, session);

  PolicyOverride ov;
  ov.priority = 30'000;
  ov.deadline = milliseconds(-5);
  const Status<std::string> status = plane.override_flow(kFlowVideo, ov);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().find("deadline must not be negative"), std::string::npos);
  // Refused before the merge: the live policy and the stub keep their
  // values, the rest of the override included.
  EXPECT_EQ(session.active_policy().deadline, milliseconds(20));
  EXPECT_EQ(session.active_policy().priority, 10'000);
  EXPECT_EQ(stub->deadline(), milliseconds(20));
  EXPECT_EQ(stub->priority(), 10'000);
  EXPECT_EQ(plane.active_override(kFlowVideo), nullptr);
  EXPECT_EQ(plane.overrides_applied(), 0u);
}

TEST_F(ControlPlaneFixture, RestampPathDoesNotAllocate) {
  QoSSession session(bed.sender_orb, *stub);
  session.apply(bench::PolicyBuilder::sender(kFlowVideo, 10'000).deadline(milliseconds(20)));
  plane.manage(kFlowVideo, session);

  // Warm up both paths once (first override populates the Managed slot's
  // optionals; the binding itself was populated by apply).
  EndToEndQosPolicy policy = session.active_policy();
  policy.priority = 11'000;
  session.apply(policy);
  PolicyOverride ov;
  ov.priority = 12'000;
  ov.dscp = net::dscp::kEf;
  ov.deadline = milliseconds(5);
  ASSERT_TRUE(plane.override_flow(kFlowVideo, ov).ok());
  ASSERT_TRUE(plane.clear_override(kFlowVideo).ok());

  // Steady state: per-invocation knob re-stamps are pure writes to the
  // stub.
  const std::uint64_t before = g_heap_allocs;
  for (int i = 0; i < 100; ++i) {
    policy.priority = 12'000 + (i % 2) * 1'000;
    policy.deadline = milliseconds(5 + i % 3);
    session.apply(policy);
  }
  const std::optional<orb::CorbaPriority> direct_priority = stub->priority();
  const std::optional<Duration> direct_deadline = stub->deadline();
  int stamps = 0;
  for (int i = 0; i < 100; ++i) {
    ov.priority = 20'000 + (i % 2) * 1'000;
    if (plane.override_flow(kFlowVideo, ov).ok() &&
        plane.clear_override(kFlowVideo).ok()) {
      ++stamps;
    }
  }
  EXPECT_EQ(g_heap_allocs, before);
  // Every one of those landed on the live binding: the last direct
  // apply's values, then the base policy the last clear restored.
  EXPECT_EQ(direct_priority, 13'000);
  EXPECT_EQ(direct_deadline, milliseconds(5));
  EXPECT_EQ(stamps, 100);
  EXPECT_EQ(stub->priority(), 10'000);
  EXPECT_EQ(stub->deadline(), milliseconds(20));
}

TEST_F(ControlPlaneFixture, RevokeDuringInFlightSignalingLeaksNothing) {
  QoSSession session(bed.sender_orb, *stub, &bed.qos);
  // Network reservation plus a CPU reserve with no client: the CPU stage
  // fails synchronously (partial apply) while RSVP is still in flight.
  std::optional<Status<std::string>> outcome;
  session.apply(bench::PolicyBuilder::sender(kFlowVideo, 10'000)
                    .network(1e6, 32'000)
                    .cpu_reserve(milliseconds(10), milliseconds(100), true),
                [&](Status<std::string> s) { outcome = std::move(s); });
  // The CPU stage failed synchronously, but the apply has not settled: the
  // RSVP exchange is still in flight, so the callback has not fired.
  EXPECT_FALSE(outcome.has_value());

  // Revoke before the RSVP Path/Resv exchange lands. The late reservation
  // must be released by its own stale callback, not recorded — and the
  // cancelled apply's callback must never fire on the revoked session.
  session.revoke();
  EXPECT_FALSE(stub->priority().has_value());
  bed.engine.run_until(TimePoint{seconds(2).ns()});
  EXPECT_FALSE(outcome.has_value());
  EXPECT_FALSE(session.network_reserved());
  auto* q = dynamic_cast<net::IntServQueue*>(
      &bed.network.link_between(bed.switch_node, bed.receiver_node)->queue());
  ASSERT_NE(q, nullptr);
  EXPECT_FALSE(q->has_reservation(kFlowVideo));

  // A session that never applied anything has nothing to tear down: its
  // revoke must not wipe another session's live binding on the same stub.
  QoSSession owner(bed.sender_orb, *stub);
  owner.apply(bench::PolicyBuilder::sender(kFlowVideo, 15'000));
  ASSERT_EQ(stub->priority(), 15'000);
  QoSSession bystander(bed.sender_orb, *stub);
  bystander.revoke();
  EXPECT_EQ(stub->priority(), 15'000);
  EXPECT_EQ(stub->flow(), kFlowVideo);
}

// --- override churn vs tear-down-and-rebind oracle ---------------------------

struct ChurnStep {
  std::int64_t at_ms = 0;
  bool clear = false;
  PolicyOverride ov;
};

std::vector<ChurnStep> churn_script(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<ChurnStep> script;
  for (int k = 0; k < 24; ++k) {
    ChurnStep step;
    step.at_ms = 200 + 80 * k;
    step.clear = rng() % 4 == 0;
    if (!step.clear) {
      step.ov.priority =
          static_cast<orb::CorbaPriority>(1'000 + (rng() % 30) * 1'000);
      if (rng() % 2 == 0) {
        step.ov.dscp = (rng() % 2 == 0) ? net::dscp::kEf : net::dscp::kAf41;
      }
      if (rng() % 2 == 0) {
        step.ov.deadline = milliseconds(1 + static_cast<std::int64_t>(rng() % 50));
      }
    }
    script.push_back(step);
  }
  return script;
}

struct ChurnTrace {
  std::uint64_t sent = 0;
  std::vector<std::int64_t> delivery_ns;  // per-delivery engine clock
};

/// One 2.5 s contended run (load source saturating the bottleneck),
/// replaying `script` either as live override_flow/clear_override
/// re-stamps or as full revoke + re-apply of the merged policy.
ChurnTrace run_churn(const std::vector<ChurnStep>& script, bool rebind) {
  ReservationTestbedParams params;
  params.load_seed = 7;
  ReservationTestbed bed(params);

  ChurnTrace trace;
  orb::Poa& poa = bed.receiver_orb.create_poa("app");
  auto servant = std::make_shared<orb::FunctionServant>(
      microseconds(50), [&trace, &bed](orb::ServerRequest&) {
        trace.delivery_ns.push_back(bed.engine.now().ns());
      });
  const orb::ObjectRef target = poa.activate_object("target", std::move(servant));
  orb::ObjectStub stub(bed.sender_orb, target);

  const EndToEndQosPolicy base = bench::PolicyBuilder::sender(kFlowVideo, 10'000);
  QoSSession session(bed.sender_orb, stub);
  session.apply(base);
  // The plane exists in both modes so the two worlds are identical up to
  // the churn mechanism under test.
  orb::Poa& ctrl_poa = bed.sender_orb.create_poa("ctrl");
  QosControlPlane plane(ctrl_poa);
  plane.manage(kFlowVideo, session);

  for (const ChurnStep& step : script) {
    bed.engine.at(TimePoint{milliseconds(step.at_ms).ns()}, [&plane, &session,
                                                            &base, &step, rebind] {
      if (!rebind) {
        if (step.clear) {
          (void)plane.clear_override(kFlowVideo);
        } else {
          (void)plane.override_flow(kFlowVideo, step.ov);
        }
        return;
      }
      // Oracle: the pre-control-plane way — tear the binding down and
      // rebuild it from scratch with the merged policy.
      session.revoke();
      session.apply(step.clear ? base : merge_override(base, step.ov));
    });
  }

  sim::PeriodicTimer task(bed.engine, milliseconds(1), [&] {
    ++trace.sent;
    stub.oneway("frame", std::vector<std::uint8_t>(1000));
  });
  task.start();
  bed.load_traffic->start();
  bed.engine.run_until(TimePoint{milliseconds(2'500).ns()});
  task.stop();
  bed.load_traffic->stop();
  bed.engine.run_until(TimePoint{milliseconds(3'500).ns()});  // drain
  return trace;
}

TEST(OverrideChurnOracle, LiveRestampMatchesTearDownAndRebind) {
  const std::vector<ChurnStep> script = churn_script(0x5eed'2026);
  const ChurnTrace live = run_churn(script, /*rebind=*/false);
  const ChurnTrace oracle = run_churn(script, /*rebind=*/true);
  ASSERT_GT(live.sent, 0u);
  ASSERT_FALSE(live.delivery_ns.empty());
  EXPECT_EQ(live.sent, oracle.sent);
  // Byte-identical flow metrics: every delivery lands at the same clock
  // tick whether the policy churned in place or via full rebinds.
  EXPECT_EQ(live.delivery_ns, oracle.delivery_ns);
}

// --- feedback epochs ----------------------------------------------------------

TEST(FeedbackSchedulerTest, EpochGridIsDeterministicAndHysteresisHolds) {
  sim::Engine engine;
  obs::TelemetryHub hub;
  net::IntServQueue queue(net::IntServQueue::Config{});
  queue.install_reservation(kFlowSender1, 1e6, 10'000, engine.now());
  queue.install_reservation(kFlowSender2, 1e6, 10'000, engine.now());

  FeedbackConfig cfg;
  cfg.net_pool_bps = 6e6;
  FeedbackScheduler fs(engine, hub, cfg);
  fs.control_rate(kFlowSender1, queue, 10'000);
  fs.control_rate(kFlowSender2, queue, 10'000);
  EXPECT_TRUE(fs.controls(kFlowSender1));
  EXPECT_FALSE(fs.controls(kFlowCross));

  // Start off-grid: the first epoch still lands on the next integer
  // multiple of the epoch length (500 ms), not 123 + 500.
  engine.run_until(TimePoint{milliseconds(123).ns()});
  fs.start();
  engine.run_until(TimePoint{milliseconds(1'600).ns()});
  EXPECT_EQ(fs.epochs_run(), 3u);  // 500, 1000, 1500 ms

  // No traffic, zero deficit everywhere: both flows settle on the equal
  // share of the pool (3 Mbps each), and epochs after the first change
  // nothing (inside the dead zone).
  EXPECT_DOUBLE_EQ(fs.deficit(kFlowSender1), 0.0);
  EXPECT_EQ(fs.restamps_applied(), 2u);
  EXPECT_EQ(fs.restamps_rejected(), 0u);
  EXPECT_DOUBLE_EQ(queue.flow_rate_bps(kFlowSender1), 3e6);
  EXPECT_DOUBLE_EQ(queue.flow_rate_bps(kFlowSender2), 3e6);
  EXPECT_NEAR(queue.reserved_rate_bps(), 6e6, 1e-6);

  fs.stop();
  const std::uint64_t epochs = fs.epochs_run();
  engine.run_until(TimePoint{milliseconds(3'000).ns()});
  EXPECT_EQ(fs.epochs_run(), epochs);  // stop() cancels the pending tick
}

// --- flash crowd ---------------------------------------------------------------

TEST(FlashCrowd, FeedbackRecoversWhereStaticPolicyCollapses) {
  bench::FlashCrowdConfig cfg;
  cfg.feedback = false;
  const bench::FlashCrowdResult is = bench::run_flash_crowd(cfg);
  cfg.feedback = true;
  const bench::FlashCrowdResult fb = bench::run_flash_crowd(cfg);

  // Static policy: the crowd pushes flow A past its fixed reservation and
  // the SLO breach is sustained to the end of traffic — no recovery.
  EXPECT_GE(is.a_breaches, 1u);
  EXPECT_EQ(is.a_recoveries, 0u);
  EXPECT_TRUE(is.a_breached_at_end);
  EXPECT_EQ(is.epochs_run, 0u);

  // Feedback: the same crowd breaches, the controller re-divides the pool,
  // and the SLO recovers while the crowd is still arriving.
  EXPECT_GE(fb.a_breaches, 1u);
  EXPECT_GE(fb.a_recoveries, 1u);
  EXPECT_FALSE(fb.a_breached_at_end);
  EXPECT_GE(fb.epochs_run, 1u);
  EXPECT_GE(fb.restamps_applied, 1u);

  // The adaptation is worth real goodput, not just a clean SLO lamp.
  EXPECT_GT(fb.a_post_step_delivery, is.a_post_step_delivery + 0.2);
  EXPECT_LT(fb.a_breached_ns, is.a_breached_ns);
}

}  // namespace
}  // namespace aqm::core
