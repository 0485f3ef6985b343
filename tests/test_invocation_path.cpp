// Invocation-path contract of the ORB's own stages: the service-context
// wire order of requests and replies, the trace id that reaches the server
// off the packets rather than the message, deadline vetoes on both sides,
// malformed-context drops, bounded retry with exponential backoff, and
// worker-count invariance of the parallel experiment runner with retries
// and transient failures in play.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "orb/orb.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

namespace aqm::orb {
namespace {

struct PipelineFixture : public ::testing::Test {
  PipelineFixture()
      : net(engine),
        client_node(net.add_node("client")),
        server_node(net.add_node("server")),
        client_cpu(engine, "client-cpu"),
        server_cpu(engine, "server-cpu"),
        client(net, client_node, client_cpu),
        server(net, server_node, server_cpu) {
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 100e6;
    cfg.propagation = microseconds(100);
    net.add_duplex_link(client_node, server_node, cfg);
  }

  /// Echo servant; its first `failures` requests throw orb::Transient.
  ObjectRef make_echo(Duration cost = microseconds(100), int failures = 0) {
    Poa& poa = server.create_poa("app");
    auto servant =
        std::make_shared<FunctionServant>(cost, [this, failures](ServerRequest& req) {
          ++handled;
          if (handled <= failures) throw Transient("flaky echo");
          req.reply_body = req.body;
        });
    return poa.activate_object("echo", std::move(servant));
  }

  sim::Engine engine;
  net::Network net;
  net::NodeId client_node;
  net::NodeId server_node;
  os::Cpu client_cpu;
  os::Cpu server_cpu;
  OrbEndpoint client;
  OrbEndpoint server;
  int handled = 0;
};

// --- service contexts -----------------------------------------------------------

TEST_F(PipelineFixture, ServiceContextsKeepTheirWireOrder) {
  obs::TraceRecorder recorder;
  engine.set_tracer(&recorder);  // tracing adds no context: the id rides on packets
  InvokeOptions opts;
  opts.deadline = seconds(1);

  // Requests are read off the wire at a bare transport with no ORB behind it.
  const net::NodeId tap_node = net.add_node("tap");
  net.add_duplex_link(client_node, tap_node, net::LinkConfig{});
  GiopTransport tap(net, tap_node);
  std::vector<std::uint32_t> request_ids;
  tap.set_message_handler([&](net::NodeId, const MessageView& msg) {
    for (const ServiceContext& sc : decode(msg.bytes()).request.contexts) {
      request_ids.push_back(sc.id);
    }
  });
  ObjectRef tapped;
  tapped.node = tap_node;
  tapped.object_key = "app/echo";
  client.invoke(tapped, "echo", {1}, opts,
                [](CompletionStatus, std::vector<std::uint8_t>) {});
  engine.run();

  // Replies are read off the wire at the client: this handler replaces the
  // client ORB's.
  std::vector<std::uint32_t> reply_ids;
  client.transport().set_message_handler([&](net::NodeId, const MessageView& msg) {
    for (const ServiceContext& sc : decode(msg.bytes()).reply.contexts) {
      reply_ids.push_back(sc.id);
    }
  });
  client.invoke(make_echo(), "echo", {1}, opts,
                [](CompletionStatus, std::vector<std::uint8_t>) {});
  engine.run();
  engine.set_tracer(nullptr);

  EXPECT_EQ(request_ids, (std::vector<std::uint32_t>{kRtCorbaPriorityContextId,
                                                     kTimestampContextId,
                                                     kDeadlineContextId}));
  EXPECT_TRUE(reply_ids.empty());
  EXPECT_EQ(handled, 1);
}

TEST_F(PipelineFixture, TruncatedOrbContextsAreDroppedLikeMalformedMessages) {
  // Hand-encoded requests, each carrying one ORB context with a 2-byte
  // body: too short for any of them.
  const ObjectRef ref = make_echo();
  const std::vector<std::uint8_t> body = {1};
  for (const std::uint32_t id :
       {kRtCorbaPriorityContextId, kTimestampContextId, kDeadlineContextId}) {
    RequestHeader header;
    header.request_id = 1000 + id;
    header.response_expected = true;
    header.object_key = ref.object_key;
    header.operation = "echo";
    header.contexts.push_back({id, {0xAB, 0xCD}});
    client.transport().send_message(
        server_node,
        std::make_shared<const std::vector<std::uint8_t>>(encode_request(header, body)),
        net::dscp::kBestEffort);
    engine.run();
    EXPECT_EQ(handled, 0) << "context id " << id;
  }
  EXPECT_EQ(server.stats().requests_dispatched, 0u);
  EXPECT_EQ(client.transport().messages_delivered(), 0u);  // and nothing answered

  // The server survived and serves a well-formed request.
  std::optional<CompletionStatus> status;
  client.invoke(ref, "echo", {1}, InvokeOptions{},
                [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  EXPECT_EQ(status, CompletionStatus::Ok);
  EXPECT_EQ(handled, 1);
}

// --- out-of-band trace id --------------------------------------------------------

TEST_F(PipelineFixture, DispatchCarriesTheClientTraceIdOffThePacketOrTheCollocatedCall) {
  obs::TraceRecorder recorder;
  engine.set_tracer(&recorder);
  const auto ignore = [](CompletionStatus, std::vector<std::uint8_t>) {};
  // A 4 KB body fragments at the 1500-byte MTU, so the server takes the
  // id from the reassembled message.
  client.invoke(make_echo(), "echo", std::vector<std::uint8_t>(4096, 7), InvokeOptions{},
                ignore);
  engine.run();
  // A collocated call never reaches the transport.
  Poa& local = client.create_poa("local");
  const ObjectRef local_ref = local.activate_object(
      "echo", std::make_shared<FunctionServant>(microseconds(100), [](ServerRequest&) {}));
  client.invoke(local_ref, "echo", {1}, InvokeOptions{}, ignore);
  engine.run();
  engine.set_tracer(nullptr);

  std::vector<std::uint64_t> calls;
  std::vector<std::uint64_t> dispatches;
  recorder.for_each([&](const obs::TraceEvent& e) {
    if (e.phase == obs::TracePhase::AsyncBegin) calls.push_back(e.id);
    if (std::string_view(e.name) == "dispatch") dispatches.push_back(e.id);
  });
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_NE(calls[0], 0u);
  EXPECT_NE(calls[1], 0u);
  EXPECT_EQ(dispatches, calls);
  std::size_t request_fragments = 0;
  recorder.for_each([&](const obs::TraceEvent& e) {
    if (e.id == calls[0] && std::string_view(e.name) == "tx") ++request_fragments;
  });
  EXPECT_GE(request_fragments, 4u);  // at least two each way
  EXPECT_EQ(client.stats().collocated_calls, 1u);
}

// --- deadline / retry -----------------------------------------------------------

TEST_F(PipelineFixture, ClientVetoShortCircuitsBeforeAnyCost) {
  // A deadline already behind the clock when the attempt starts.
  const ObjectRef ref = make_echo();
  ObjectStub stub(client, ref);
  stub.set_deadline(microseconds(-1));
  std::optional<CompletionStatus> status;
  stub.twoway("echo", {1},
              [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  // The veto completes the invocation synchronously: no engine time needed.
  ASSERT_EQ(status, CompletionStatus::Timeout);
  engine.run();
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(client.stats().requests_sent, 0u);
  EXPECT_EQ(client.stats().client_vetoed, 1u);
  EXPECT_EQ(client.stats().deadline_missed, 1u);
  EXPECT_EQ(server.stats().requests_dispatched, 0u);
}

TEST_F(PipelineFixture, ExpiredDeadlineDropsBeforeServantWork) {
  const ObjectRef ref = make_echo();
  ObjectStub stub(client, ref);
  // 100 us propagation delay guarantees the 50 us end-to-end deadline has
  // expired by the time the request reaches the server.
  stub.set_deadline(microseconds(50));
  std::optional<CompletionStatus> status;
  stub.twoway("echo", {1},
              [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  ASSERT_EQ(status, CompletionStatus::Timeout);
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(server.stats().server_vetoed, 1u);
  EXPECT_EQ(server.stats().requests_dispatched, 0u);
}

TEST_F(PipelineFixture, GenerousDeadlinePassesThrough) {
  const ObjectRef ref = make_echo();
  ObjectStub stub(client, ref);
  stub.set_deadline(seconds(1));
  std::optional<CompletionStatus> status;
  stub.twoway("echo", {1},
              [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  ASSERT_EQ(status, CompletionStatus::Ok);
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(server.stats().server_vetoed, 0u);
}

TEST_F(PipelineFixture, RetrySucceedsAfterTransientVetoes) {
  const ObjectRef ref = make_echo(microseconds(100), /*failures=*/2);
  ObjectStub stub(client, ref);
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff = milliseconds(10);
  retry.backoff_multiplier = 2.0;
  stub.set_retry(retry);

  std::optional<CompletionStatus> status;
  std::optional<TimePoint> done_at;
  stub.twoway("echo", {1}, [&](CompletionStatus s, std::vector<std::uint8_t>) {
    status = s;
    done_at = engine.now();
  });
  engine.run();
  ASSERT_EQ(status, CompletionStatus::Ok);
  EXPECT_EQ(handled, 3);  // two transient failures, then the answer
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().replies_error, 2u);
  EXPECT_EQ(client.stats().replies_ok, 1u);
  // Exponential backoff: 10 ms after attempt 1, 20 ms after attempt 2.
  ASSERT_TRUE(done_at);
  EXPECT_GE(*done_at, TimePoint{milliseconds(30).ns()});
}

TEST_F(PipelineFixture, RetryExhaustionReportsLastError) {
  const ObjectRef ref = make_echo(microseconds(100), /*failures=*/100);  // never recovers
  ObjectStub stub(client, ref);
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff = milliseconds(5);
  stub.set_retry(retry);

  std::optional<CompletionStatus> status;
  stub.twoway("echo", {1},
              [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  ASSERT_EQ(status, CompletionStatus::Transient);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().replies_error, 3u);
  EXPECT_EQ(handled, 3);
}

TEST_F(PipelineFixture, RetryCoversLocalTimeouts) {
  // Reference points at a node with no ORB: every attempt times out locally.
  const net::NodeId ghost = net.add_node("ghost");
  net::LinkConfig cfg;
  net.add_duplex_link(client_node, ghost, cfg);
  ObjectRef ref;
  ref.node = ghost;
  ref.object_key = "a/b";

  InvokeOptions opts;
  opts.timeout = milliseconds(20);
  opts.retry.max_attempts = 3;
  opts.retry.initial_backoff = milliseconds(5);
  std::optional<CompletionStatus> status;
  client.invoke(ref, "op", {}, opts,
                [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  ASSERT_EQ(status, CompletionStatus::Timeout);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().timeouts, 3u);
}

// --- worker-count invariance with retries and transient failures ----------------

struct PipelineTrialStats {
  std::uint64_t replies_ok = 0;
  std::uint64_t replies_error = 0;
  std::uint64_t retries = 0;
  std::uint64_t server_vetoed = 0;
  std::uint64_t handled = 0;
  std::uint64_t events_executed = 0;

  bool operator==(const PipelineTrialStats&) const = default;
};

/// Self-contained trial: a batch of deadline-bound, retry-enabled twoways
/// against a servant that fails every third request with orb::Transient.
PipelineTrialStats run_pipeline_trial(std::size_t index) {
  sim::Engine engine;
  net::Network net(engine);
  const auto cn = net.add_node("client");
  const auto sn = net.add_node("server");
  os::Cpu ccpu(engine, "ccpu");
  os::Cpu scpu(engine, "scpu");
  OrbEndpoint client(net, cn, ccpu);
  OrbEndpoint server(net, sn, scpu);
  net::LinkConfig link;
  link.bandwidth_bps = 50e6;
  link.propagation = microseconds(100 + 10 * index);
  net.add_duplex_link(cn, sn, link);

  PipelineTrialStats stats;
  Poa& poa = server.create_poa("app");
  auto servant = std::make_shared<FunctionServant>(
      microseconds(200), [&](ServerRequest& req) {
        if (++stats.handled % 3 == 0) throw Transient("every third request");
        req.reply_body = req.body;
      });
  ObjectStub stub(client, poa.activate_object("echo", std::move(servant)));
  stub.set_deadline(milliseconds(40));
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.initial_backoff = milliseconds(2 + index % 3);
  stub.set_retry(retry);

  sim::PeriodicTimer source(engine, milliseconds(5), [&] {
    stub.twoway("echo", std::vector<std::uint8_t>(64 + index),
                [](CompletionStatus, std::vector<std::uint8_t>) {});
  });
  source.start();
  engine.run_until(TimePoint{milliseconds(500).ns()});
  source.stop();
  engine.run_until(TimePoint{milliseconds(700).ns()});

  stats.replies_ok = client.stats().replies_ok;
  stats.replies_error = client.stats().replies_error;
  stats.retries = client.stats().retries;
  stats.server_vetoed = server.stats().server_vetoed;
  stats.events_executed = engine.executed();
  return stats;
}

TEST(PipelineParallel, WorkerCountInvarianceWithInterceptors) {
  constexpr std::size_t kTrials = 12;
  auto sweep = [&](unsigned jobs) {
    core::Experiment<PipelineTrialStats> exp;
    for (std::size_t i = 0; i < kTrials; ++i) {
      exp.add("pipeline-" + std::to_string(i), core::derive_seed(11, i),
              [i](const core::TrialSpec&) { return run_pipeline_trial(i); });
    }
    core::ExperimentOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    return exp.run(opts);
  };

  const auto serial = sweep(1);
  ASSERT_EQ(serial.size(), kTrials);
  // The scenario exercises the machinery it claims to: successful replies,
  // transient failures, and retries all occur.
  EXPECT_GT(serial.front().replies_ok, 0u);
  EXPECT_GT(serial.front().replies_error, 0u);
  EXPECT_GT(serial.front().retries, 0u);

  for (const unsigned jobs : {2u, 4u}) {
    const auto parallel = sweep(jobs);
    ASSERT_EQ(parallel.size(), kTrials);
    for (std::size_t i = 0; i < kTrials; ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "trial " << i << " differs at jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace aqm::orb
