// Core integration layer: CORBA CPU-reservation manager, network QoS
// manager, end-to-end QoS sessions, testbeds.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/cpu_reservation_manager.hpp"
#include "core/network_qos_manager.hpp"
#include "core/qos_session.hpp"
#include "core/testbed.hpp"

namespace aqm::core {
namespace {

struct AtrFixture : public ::testing::Test {
  AtrFixture()
      : bed(AtrTestbedParams{}),
        manager_poa(&bed.server_orb.create_poa("mgmt")),
        manager(*manager_poa, bed.server_cpu),
        client(bed.client_orb, manager.ref()) {}

  AtrTestbed bed;
  orb::Poa* manager_poa;
  CpuReservationManagerServer manager;
  CpuReservationClient client;
};

TEST_F(AtrFixture, RemoteReserveCreationSucceeds) {
  std::optional<Result<os::ReserveId>> outcome;
  client.create_reserve({milliseconds(20), milliseconds(100), true},
                        [&](Result<os::ReserveId> r) { outcome = std::move(r); });
  bed.engine.run();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->ok());
  EXPECT_TRUE(bed.server_cpu.has_reserve(outcome->value()));
  EXPECT_NEAR(bed.server_cpu.reserved_utilization(), 0.2, 1e-9);
}

TEST_F(AtrFixture, RemoteReserveAdmissionFailureReported) {
  std::optional<Result<os::ReserveId>> first;
  std::optional<Result<os::ReserveId>> second;
  client.create_reserve({milliseconds(80), milliseconds(100), true},
                        [&](Result<os::ReserveId> r) { first = std::move(r); });
  bed.engine.run();
  ASSERT_TRUE(first && first->ok());
  client.create_reserve({milliseconds(30), milliseconds(100), true},
                        [&](Result<os::ReserveId> r) { second = std::move(r); });
  bed.engine.run();
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->ok());
  EXPECT_NE(second->error().find("admission denied"), std::string::npos);
}

TEST_F(AtrFixture, RemoteReserveWithClockOverflowingPeriodIsRefused) {
  std::optional<Result<os::ReserveId>> overflowing;
  client.create_reserve({nanoseconds(1), Duration::max(), true},
                        [&](Result<os::ReserveId> r) { overflowing = std::move(r); });
  bed.engine.run();
  ASSERT_TRUE(overflowing.has_value());
  ASSERT_FALSE(overflowing->ok());
  EXPECT_NE(overflowing->error().find("overflows the clock"), std::string::npos);
  EXPECT_DOUBLE_EQ(bed.server_cpu.reserved_utilization(), 0.0);

  // A live reserve cannot be re-stamped onto such a period either.
  std::optional<os::ReserveId> id;
  client.create_reserve({milliseconds(20), milliseconds(100), true},
                        [&](Result<os::ReserveId> r) {
                          ASSERT_TRUE(r.ok());
                          id = r.value();
                        });
  bed.engine.run();
  ASSERT_TRUE(id);
  std::optional<Status<std::string>> resized;
  client.update_reserve(*id, {nanoseconds(1), Duration::max(), true},
                        [&](Status<std::string> s) { resized = std::move(s); });
  bed.engine.run();
  ASSERT_TRUE(resized.has_value());
  ASSERT_FALSE(resized->ok());
  EXPECT_NE(resized->error().find("overflows the clock"), std::string::npos);
  EXPECT_DOUBLE_EQ(bed.server_cpu.reserved_utilization(), 0.2);
}

TEST_F(AtrFixture, RemoteUtilizationQueryTracksAdmittedReserves) {
  bed.engine.run();
  EXPECT_DOUBLE_EQ(bed.server_cpu.reserved_utilization(), 0.0);

  client.create_reserve({milliseconds(20), milliseconds(100), true},
                        [](Result<os::ReserveId> r) { ASSERT_TRUE(r.ok()); });
  std::optional<os::ReserveId> second;
  client.create_reserve({milliseconds(30), milliseconds(200), false},
                        [&](Result<os::ReserveId> r) {
                          ASSERT_TRUE(r.ok());
                          second = r.value();
                        });
  bed.engine.run();
  EXPECT_NEAR(bed.server_cpu.reserved_utilization(), 0.2 + 0.15, 1e-12);

  ASSERT_TRUE(second);
  client.destroy_reserve(*second);
  bed.engine.run();
  EXPECT_NEAR(bed.server_cpu.reserved_utilization(), 0.2, 1e-12);
}

TEST_F(AtrFixture, RemoteDestroyReleasesReserve) {
  std::optional<os::ReserveId> id;
  client.create_reserve({milliseconds(50), milliseconds(100), true},
                        [&](Result<os::ReserveId> r) {
                          ASSERT_TRUE(r.ok());
                          id = r.value();
                        });
  bed.engine.run();
  ASSERT_TRUE(id);
  std::optional<bool> destroyed;
  client.destroy_reserve(*id, [&](bool ok) { destroyed = ok; });
  bed.engine.run();
  EXPECT_EQ(destroyed, true);
  EXPECT_FALSE(bed.server_cpu.has_reserve(*id));
  EXPECT_DOUBLE_EQ(bed.server_cpu.reserved_utilization(), 0.0);
}

// The client's one reply path: each failure reaches the callback as an
// error with a fixed text, and a null callback is ignored.
TEST_F(AtrFixture, RemoteCallFailuresReachTheCallbackAsErrors) {
  const os::ReserveSpec spec{milliseconds(20), milliseconds(100), true};
  std::optional<Result<os::ReserveId>> created;
  std::optional<Status<std::string>> updated;

  // A non-Ok completion: the manager's POA holds no such object.
  orb::ObjectRef missing = manager.ref();
  missing.object_key = "mgmt/no_such_manager";
  CpuReservationClient orphan(bed.client_orb, missing);
  orphan.create_reserve(spec, [&](Result<os::ReserveId> r) { created = std::move(r); });
  orphan.update_reserve(1, spec, [&](Status<std::string> s) { updated = std::move(s); });
  orphan.update_reserve(1, spec, nullptr);
  bed.engine.run();
  ASSERT_TRUE(created && updated);
  ASSERT_FALSE(created->ok());
  EXPECT_EQ(created->error(), "rpc failed: OBJECT_NOT_EXIST");
  ASSERT_FALSE(updated->ok());
  EXPECT_EQ(updated->error(), "rpc failed: OBJECT_NOT_EXIST");

  // An undecodable reply: a servant under the manager's object id that
  // answers one byte (false, then no error string).
  orb::Poa& rogue_poa = bed.server_orb.create_poa("rogue");
  const orb::ObjectRef rogue_ref = rogue_poa.activate_object(
      kCpuReserveManagerObjectId,
      std::make_shared<orb::FunctionServant>(
          microseconds(30), [](orb::ServerRequest& req) { req.reply_body = {0}; }));
  CpuReservationClient rogue(bed.client_orb, rogue_ref);
  created.reset();
  updated.reset();
  rogue.create_reserve(spec, [&](Result<os::ReserveId> r) { created = std::move(r); });
  rogue.update_reserve(1, spec, [&](Status<std::string> s) { updated = std::move(s); });
  bed.engine.run();
  ASSERT_TRUE(created && updated);
  ASSERT_FALSE(created->ok());
  EXPECT_EQ(created->error(), "MARSHAL: CDR buffer underrun");
  ASSERT_FALSE(updated->ok());
  EXPECT_EQ(updated->error(), "MARSHAL: CDR buffer underrun");
  EXPECT_DOUBLE_EQ(bed.server_cpu.reserved_utilization(), 0.0);
}

struct SessionFixture : public ::testing::Test {
  SessionFixture()
      : bed(ReservationTestbedParams{}),
        app_poa(&bed.receiver_orb.create_poa("app")),
        mgmt_poa(&bed.receiver_orb.create_poa("mgmt")),
        manager(*mgmt_poa, bed.receiver_cpu),
        cpu_client(bed.sender_orb, manager.ref()) {
    auto servant = std::make_shared<orb::FunctionServant>(
        microseconds(100), [](orb::ServerRequest&) {});
    target = app_poa->activate_object("target", std::move(servant));
    stub = std::make_unique<orb::ObjectStub>(bed.sender_orb, target);
    stub->set_flow(kFlowVideo);
  }

  ReservationTestbed bed;
  orb::Poa* app_poa;
  orb::Poa* mgmt_poa;
  CpuReservationManagerServer manager;
  CpuReservationClient cpu_client;
  orb::ObjectRef target;
  std::unique_ptr<orb::ObjectStub> stub;
};

TEST_F(SessionFixture, CombinedPolicyAppliesAllMechanisms) {
  QoSSession session(bed.sender_orb, *stub, &bed.qos, &cpu_client);
  EndToEndQosPolicy policy;
  policy.priority = 28'000;
  policy.map_priority_to_dscp = true;
  policy.server_cpu_reserve = os::ReserveSpec{milliseconds(20), milliseconds(100), true};
  policy.network_reservation = net::FlowSpec{1.2e6, 32'000};

  std::optional<bool> outcome;
  session.apply(policy, [&](Status<std::string> s) { outcome = s.ok(); });
  bed.engine.run_until(TimePoint{seconds(2).ns()});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(*outcome);
  EXPECT_TRUE(session.network_reserved());
  ASSERT_TRUE(session.cpu_reserve_id().has_value());
  EXPECT_TRUE(bed.receiver_cpu.has_reserve(*session.cpu_reserve_id()));
  // The priority and its banded DSCP are written to this binding's stub;
  // the ORB's global mapping stays best-effort.
  EXPECT_EQ(stub->priority(), 28'000);
  EXPECT_EQ(stub->ref().protocol.dscp, net::dscp::kEf);
  EXPECT_EQ(bed.sender_orb.dscp_mappings().to_dscp(28'000), net::dscp::kBestEffort);
  // The bottleneck queue carries the stream reservation.
  auto* q = dynamic_cast<net::IntServQueue*>(
      &bed.network.link_between(bed.switch_node, bed.receiver_node)->queue());
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->has_reservation(kFlowVideo));
}

TEST_F(SessionFixture, RevokeTearsDownEverything) {
  QoSSession session(bed.sender_orb, *stub, &bed.qos, &cpu_client);
  EndToEndQosPolicy policy;
  policy.network_reservation = net::FlowSpec{1e6, 32'000};
  policy.server_cpu_reserve = os::ReserveSpec{milliseconds(10), milliseconds(100), true};
  std::optional<bool> outcome;
  session.apply(policy, [&](Status<std::string> s) { outcome = s.ok(); });
  bed.engine.run_until(TimePoint{seconds(2).ns()});
  ASSERT_TRUE(outcome && *outcome);

  session.revoke();
  bed.engine.run_until(TimePoint{seconds(4).ns()});
  EXPECT_FALSE(session.network_reserved());
  EXPECT_FALSE(session.cpu_reserve_id().has_value());
  EXPECT_DOUBLE_EQ(bed.receiver_cpu.reserved_utilization(), 0.0);
  auto* q = dynamic_cast<net::IntServQueue*>(
      &bed.network.link_between(bed.switch_node, bed.receiver_node)->queue());
  EXPECT_FALSE(q->has_reservation(kFlowVideo));
}

TEST_F(SessionFixture, PriorityOnlyPolicyIsSynchronous) {
  QoSSession session(bed.sender_orb, *stub);
  EndToEndQosPolicy policy;
  policy.priority = 15'000;
  policy.explicit_dscp = net::dscp::kAf41;
  std::optional<bool> outcome;
  session.apply(policy, [&](Status<std::string> s) { outcome = s.ok(); });
  // No simulation time needed: callback fires inline.
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(*outcome);
  EXPECT_EQ(stub->priority(), 15'000);
  EXPECT_EQ(stub->ref().protocol.dscp, net::dscp::kAf41);
  // The policy engages no flow, so the stub keeps the one it was given.
  EXPECT_EQ(stub->flow(), kFlowVideo);
}

TEST_F(SessionFixture, ReapplyDiffsAndClearsOnlyWhatTheSessionWrote) {
  QoSSession session(bed.sender_orb, *stub);
  EndToEndQosPolicy policy;
  policy.flow = kFlowSender1;
  policy.priority = 20'000;
  policy.deadline = milliseconds(30);
  policy.map_priority_to_dscp = true;
  session.apply(policy);
  EXPECT_EQ(stub->flow(), kFlowSender1);
  EXPECT_EQ(stub->priority(), 20'000);
  EXPECT_EQ(stub->deadline(), milliseconds(30));
  EXPECT_EQ(stub->ref().protocol.dscp, net::dscp::kAf21);

  // Re-applying the active policy writes nothing: a value pinned on the
  // stub since then stays.
  stub->set_priority(5'000);
  session.apply(policy);
  EXPECT_EQ(stub->priority(), 5'000);

  // An explicit DSCP replaces the banded one; a disengaged deadline the
  // session wrote is cleared.
  policy.explicit_dscp = net::dscp::kEf;
  policy.deadline.reset();
  session.apply(policy);
  EXPECT_EQ(stub->ref().protocol.dscp, net::dscp::kEf);
  EXPECT_FALSE(stub->deadline().has_value());

  // Revoke clears every knob the session wrote.
  session.revoke();
  EXPECT_EQ(stub->flow(), net::kNoFlow);
  EXPECT_FALSE(stub->priority().has_value());
  EXPECT_FALSE(stub->ref().protocol.dscp.has_value());
}

TEST_F(SessionFixture, BandedDscpWithoutPriorityIsAnError) {
  QoSSession session(bed.sender_orb, *stub);
  EndToEndQosPolicy policy;
  policy.map_priority_to_dscp = true;
  std::optional<Status<std::string>> outcome;
  session.apply(policy, [&](Status<std::string> s) { outcome = std::move(s); });
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok());
  EXPECT_NE(outcome->error().find("requires a priority"), std::string::npos);
  EXPECT_FALSE(stub->ref().protocol.dscp.has_value());
}

TEST_F(SessionFixture, NegativeBatchingFlushDelayIsAnApplyError) {
  QoSSession session(bed.sender_orb, *stub);
  EndToEndQosPolicy policy;
  policy.flow = kFlowVideo;
  policy.priority = 20'000;
  policy.oneway_batching = orb::BatchPolicy{8 * 1024, 16, microseconds(-250)};
  std::optional<Status<std::string>> outcome;
  session.apply(policy, [&](Status<std::string> s) { outcome = std::move(s); });
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok());
  EXPECT_NE(outcome->error().find("flush deadline"), std::string::npos);
  // No flow policy was installed, so the flow's oneways ship unbatched
  // instead of scheduling a flush in the past; the rest of the policy
  // still applies.
  EXPECT_EQ(bed.sender_orb.transport().flow_batching(kFlowVideo), nullptr);
  EXPECT_EQ(stub->priority(), 20'000);
  stub->oneway("op", std::vector<std::uint8_t>(64));
  bed.engine.run_until(TimePoint{milliseconds(100).ns()});
  EXPECT_EQ(bed.sender_orb.transport().batched_messages(), 0u);
  EXPECT_EQ(bed.receiver_orb.stats().requests_dispatched, 1u);
}

TEST_F(SessionFixture, NegativeDeadlineIsAnApplyError) {
  QoSSession session(bed.sender_orb, *stub);
  EndToEndQosPolicy policy;
  policy.priority = 20'000;
  policy.deadline = milliseconds(50);
  session.apply(policy);
  ASSERT_EQ(stub->deadline(), milliseconds(50));

  policy.deadline = milliseconds(-5);
  std::optional<Status<std::string>> outcome;
  session.apply(policy, [&](Status<std::string> s) { outcome = std::move(s); });
  ASSERT_TRUE(outcome.has_value());
  ASSERT_FALSE(outcome->ok());
  EXPECT_NE(outcome->error().find("deadline must not be negative"), std::string::npos);
  // The stub carries no deadline rather than one every call starts past:
  // a twoway through it completes instead of being vetoed before sending.
  EXPECT_FALSE(stub->deadline().has_value());
  EXPECT_EQ(stub->priority(), 20'000);
  std::optional<orb::CompletionStatus> call;
  stub->twoway("op", {}, [&](orb::CompletionStatus st, std::vector<std::uint8_t>) { call = st; });
  bed.engine.run_until(TimePoint{milliseconds(500).ns()});
  EXPECT_EQ(call, orb::CompletionStatus::Ok);
  EXPECT_EQ(bed.sender_orb.stats().client_vetoed, 0u);
}

TEST_F(SessionFixture, ReapplyingACpuReserveKeepsTheOneReserve) {
  QoSSession session(bed.sender_orb, *stub, nullptr, &cpu_client);
  EndToEndQosPolicy policy;
  policy.server_cpu_reserve = os::ReserveSpec{milliseconds(20), milliseconds(100), true};
  std::optional<bool> outcome;
  session.apply(policy, [&](Status<std::string> s) { outcome = s.ok(); });
  bed.engine.run_until(TimePoint{seconds(1).ns()});
  ASSERT_TRUE(outcome && *outcome);
  const std::optional<os::ReserveId> first = session.cpu_reserve_id();
  ASSERT_TRUE(first.has_value());

  outcome.reset();
  session.apply(policy, [&](Status<std::string> s) { outcome = s.ok(); });
  bed.engine.run_until(TimePoint{seconds(2).ns()});
  ASSERT_TRUE(outcome && *outcome);
  EXPECT_EQ(session.cpu_reserve_id(), first);
  EXPECT_DOUBLE_EQ(bed.receiver_cpu.reserved_utilization(), 0.2);
}

TEST_F(SessionFixture, ReapplyAfterAFailedApplySignalsAgain) {
  // Another client holds most of the receiver's CPU.
  std::optional<os::ReserveId> blocker;
  cpu_client.create_reserve({milliseconds(80), milliseconds(100), true},
                            [&](Result<os::ReserveId> r) { blocker = r.value(); });
  bed.engine.run_until(TimePoint{seconds(1).ns()});
  ASSERT_TRUE(blocker.has_value());

  QoSSession session(bed.sender_orb, *stub, &bed.qos, &cpu_client);
  EndToEndQosPolicy policy;
  policy.network_reservation = net::FlowSpec{50e6, 32'000};  // over the link's budget
  policy.server_cpu_reserve = os::ReserveSpec{milliseconds(30), milliseconds(100), true};
  std::optional<Status<std::string>> outcome;
  const auto record = [&](Status<std::string> s) { outcome = std::move(s); };
  session.apply(policy, record);
  bed.engine.run_until(TimePoint{seconds(3).ns()});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok());
  EXPECT_FALSE(session.network_reserved());
  EXPECT_FALSE(session.cpu_reserve_id().has_value());

  // The same policy again: both mechanisms are requested again and fail
  // again, instead of counting as unchanged.
  outcome.reset();
  session.apply(policy, record);
  bed.engine.run_until(TimePoint{seconds(5).ns()});
  ASSERT_TRUE(outcome.has_value());
  ASSERT_FALSE(outcome->ok());
  EXPECT_NE(outcome->error().find("admission denied on link"), std::string::npos);
  EXPECT_NE(outcome->error().find("admission denied"), outcome->error().rfind("admission denied"));
  EXPECT_FALSE(session.network_reserved());

  // Once the CPU is free, re-applying the same policy gets the reserve.
  cpu_client.destroy_reserve(*blocker);
  bed.engine.run_until(TimePoint{seconds(6).ns()});
  outcome.reset();
  session.apply(policy, record);
  bed.engine.run_until(TimePoint{seconds(8).ns()});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok());  // the network reservation still does not fit
  ASSERT_TRUE(session.cpu_reserve_id().has_value());
  EXPECT_DOUBLE_EQ(bed.receiver_cpu.reserved_utilization(), 0.3);

  // A refused resize leaves the reserve at its old spec, so the same
  // policy asks for the resize again.
  policy.network_reservation.reset();
  policy.server_cpu_reserve = os::ReserveSpec{milliseconds(95), milliseconds(100), true};
  for (int attempt = 0; attempt < 2; ++attempt) {
    outcome.reset();
    session.apply(policy, record);
    bed.engine.run_until(TimePoint{seconds(10 + 2 * attempt).ns()});
    ASSERT_TRUE(outcome.has_value());
    EXPECT_FALSE(outcome->ok()) << "attempt " << attempt;
  }
  EXPECT_DOUBLE_EQ(bed.receiver_cpu.reserved_utilization(), 0.3);
}

TEST_F(SessionFixture, MissingManagersReportedAsErrors) {
  QoSSession session(bed.sender_orb, *stub, nullptr, nullptr);
  EndToEndQosPolicy policy;
  policy.network_reservation = net::FlowSpec{1e6, 32'000};
  policy.server_cpu_reserve = os::ReserveSpec{milliseconds(10), milliseconds(100), true};
  std::optional<Status<std::string>> outcome;
  session.apply(policy, [&](Status<std::string> s) { outcome = std::move(s); });
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok());
  EXPECT_NE(outcome->error().find("NetworkQosManager"), std::string::npos);
  EXPECT_NE(outcome->error().find("CpuReservationClient"), std::string::npos);
}

TEST_F(SessionFixture, ReservationWithoutFlowIdFails) {
  orb::ObjectStub flowless(bed.sender_orb, target);
  QoSSession session(bed.sender_orb, flowless, &bed.qos, nullptr);
  EndToEndQosPolicy policy;
  policy.network_reservation = net::FlowSpec{1e6, 32'000};
  std::optional<Status<std::string>> outcome;
  session.apply(policy, [&](Status<std::string> s) { outcome = std::move(s); });
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok());
  EXPECT_NE(outcome->error().find("flow id"), std::string::npos);
}

TEST_F(SessionFixture, ReapplyWhileSignalingIsInFlightWaitsForIt) {
  QoSSession session(bed.sender_orb, *stub, &bed.qos, &cpu_client);
  EndToEndQosPolicy policy;
  policy.network_reservation = net::FlowSpec{1e6, 32'000};
  policy.server_cpu_reserve = os::ReserveSpec{milliseconds(10), milliseconds(100), true};
  std::optional<bool> first;
  std::optional<bool> second;
  session.apply(policy, [&](Status<std::string> s) { first = s.ok(); });
  // Re-applied before RSVP and the reserve request land: nothing is
  // signaled again, and the second apply settles with the first's requests.
  session.apply(policy, [&](Status<std::string> s) { second = s.ok(); });
  bed.engine.run_until(TimePoint{seconds(2).ns()});
  EXPECT_FALSE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(*second);
  EXPECT_TRUE(session.network_reserved());
  auto* q = dynamic_cast<net::IntServQueue*>(
      &bed.network.link_between(bed.switch_node, bed.receiver_node)->queue());
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->has_reservation(kFlowVideo));
  ASSERT_TRUE(session.cpu_reserve_id().has_value());
  EXPECT_DOUBLE_EQ(bed.receiver_cpu.reserved_utilization(), 0.1);
}

TEST(NetworkQosManagerTest, AgentsAreReused) {
  sim::Engine engine;
  net::Network network(engine);
  const net::NodeId a = network.add_node("a");
  NetworkQosManager qos(network);
  net::RsvpAgent& first = qos.agent(a);
  net::RsvpAgent& again = qos.agent(a);
  EXPECT_EQ(&first, &again);
}

TEST(Testbeds, PriorityTestbedTopology) {
  PriorityTestbed bed((PriorityTestbedParams{}));
  EXPECT_EQ(bed.network.node_count(), 4u);
  EXPECT_EQ(bed.network.next_hop(bed.sender_node, bed.receiver_node), bed.router_node);
  EXPECT_EQ(bed.network.next_hop(bed.cross_node, bed.receiver_node), bed.router_node);
  ASSERT_NE(bed.network.link_between(bed.router_node, bed.receiver_node), nullptr);
  EXPECT_DOUBLE_EQ(
      bed.network.link_between(bed.router_node, bed.receiver_node)->config().bandwidth_bps,
      10e6);
}

TEST(Testbeds, DiffservFlagSwitchesQueueType) {
  PriorityTestbedParams p;
  p.diffserv_bottleneck = true;
  PriorityTestbed bed(p);
  auto* q = dynamic_cast<net::DiffServQueue*>(
      &bed.network.link_between(bed.router_node, bed.receiver_node)->queue());
  EXPECT_NE(q, nullptr);
}

TEST(Testbeds, ReservationTestbedHasIntservPath) {
  ReservationTestbed bed((ReservationTestbedParams{}));
  EXPECT_NE(dynamic_cast<net::IntServQueue*>(
                &bed.network.link_between(bed.sender_node, bed.switch_node)->queue()),
            nullptr);
  EXPECT_NE(dynamic_cast<net::IntServQueue*>(
                &bed.network.link_between(bed.switch_node, bed.receiver_node)->queue()),
            nullptr);
}

}  // namespace
}  // namespace aqm::core
