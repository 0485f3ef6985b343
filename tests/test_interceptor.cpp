// Invocation-path contract: the service-context wire order of the ORB's
// own stages around registered interceptors, interceptor ordering, veto
// short-circuits on both sides, deadline expiry drops, malformed-context
// drops, bounded retry with exponential backoff, service-context
// round-trips, and worker-count invariance of the parallel experiment
// runner with interceptors installed.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "orb/interceptor.hpp"
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

  ObjectRef make_echo(Duration cost = microseconds(100)) {
    Poa& poa = server.create_poa("app");
    auto servant = std::make_shared<FunctionServant>(cost, [this](ServerRequest& req) {
      ++handled;
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

/// Records which of its phases ran (and in what global order) into a
/// shared log; optionally vetoes a phase.
class ProbeClientInterceptor final : public ClientRequestInterceptor {
 public:
  ProbeClientInterceptor(std::string name, std::vector<std::string>& log)
      : name_(std::move(name)), log_(log) {}
  [[nodiscard]] const char* name() const override { return name_.c_str(); }

  InterceptStatus establish(ClientRequestContext&) override {
    log_.push_back(name_ + ".establish");
    if (veto_establish) return veto(CompletionStatus::SystemError);
    return {};
  }
  InterceptStatus send_request(ClientRequestContext& ctx) override {
    log_.push_back(name_ + ".send_request");
    if (stamp_context_id != 0) {
      ctx.contexts->push_back({stamp_context_id, stamp_data});
    }
    return {};
  }
  void receive_reply(ClientRequestContext&) override {
    log_.push_back(name_ + ".receive_reply");
  }
  void receive_exception(ClientRequestContext&) override {
    log_.push_back(name_ + ".receive_exception");
  }

  bool veto_establish = false;
  std::uint32_t stamp_context_id = 0;
  std::vector<std::uint8_t> stamp_data;

 private:
  std::string name_;
  std::vector<std::string>& log_;
};

class ProbeServerInterceptor final : public ServerRequestInterceptor {
 public:
  ProbeServerInterceptor(std::string name, std::vector<std::string>& log)
      : name_(std::move(name)), log_(log) {}
  [[nodiscard]] const char* name() const override { return name_.c_str(); }

  InterceptStatus receive_request(ServerRequestContext& ctx) override {
    log_.push_back(name_ + ".receive_request");
    priority_seen = ctx.priority;
    had_send_time = ctx.client_send_time.has_value();
    request_context_ids.clear();
    for (const ServiceContext& sc : *ctx.contexts) request_context_ids.push_back(sc.id);
    if (watch_context_id != 0) {
      for (const ServiceContext& sc : *ctx.contexts) {
        if (sc.id == watch_context_id) context_data = sc.data;
      }
    }
    if (vetoes_remaining > 0) {
      --vetoes_remaining;
      return veto(veto_status);
    }
    return {};
  }
  InterceptStatus send_reply(ServerRequestContext& ctx) override {
    log_.push_back(name_ + ".send_reply");
    if (veto_reply) return veto(CompletionStatus::SystemError);
    if (stamp_reply_context_id != 0) ctx.reply_contexts->push_back({stamp_reply_context_id, {1}});
    return {};
  }

  int vetoes_remaining = 0;
  CompletionStatus veto_status = CompletionStatus::Transient;
  bool veto_reply = false;
  std::uint32_t watch_context_id = 0;
  std::uint32_t stamp_reply_context_id = 0;
  std::vector<std::uint8_t> context_data;
  std::vector<std::uint32_t> request_context_ids;
  CorbaPriority priority_seen = -1;
  bool had_send_time = false;

 private:
  std::string name_;
  std::vector<std::string>& log_;
};

// --- registration and ordering ------------------------------------------------

TEST_F(PipelineFixture, ServiceContextsKeepTheirWireOrder) {
  constexpr std::uint32_t kUserRequestId = 0x600DF00D;
  constexpr std::uint32_t kUserReplyId = 0x600DF00E;
  obs::TraceRecorder recorder;
  engine.set_tracer(&recorder);  // a traced call carries the trace context
  std::vector<std::string> log;
  auto& stamper = static_cast<ProbeClientInterceptor&>(client.add_client_interceptor(
      std::make_unique<ProbeClientInterceptor>("stamp", log)));
  stamper.stamp_context_id = kUserRequestId;
  stamper.stamp_data = {1};
  auto& watcher = static_cast<ProbeServerInterceptor&>(server.add_server_interceptor(
      std::make_unique<ProbeServerInterceptor>("watch", log)));
  watcher.stamp_reply_context_id = kUserReplyId;
  // The reply is read off the wire: this handler replaces the client ORB's.
  std::vector<std::uint32_t> reply_ids;
  client.transport().set_message_handler([&](net::NodeId, const MessageView& msg) {
    for (const ServiceContext& sc : decode(msg.bytes()).reply.contexts) {
      reply_ids.push_back(sc.id);
    }
  });

  const ObjectRef ref = make_echo();
  InvokeOptions opts;
  opts.deadline = seconds(1);
  client.invoke(ref, "echo", {1}, opts, [](CompletionStatus, std::vector<std::uint8_t>) {});
  engine.run();
  engine.set_tracer(nullptr);

  EXPECT_EQ(watcher.request_context_ids,
            (std::vector<std::uint32_t>{kUserRequestId, kRtCorbaPriorityContextId,
                                        kTimestampContextId, kTraceContextId,
                                        kDeadlineContextId}));
  EXPECT_EQ(reply_ids, (std::vector<std::uint32_t>{kRtCorbaPriorityContextId,
                                                   kTimestampContextId, kTraceContextId,
                                                   kUserReplyId}));
}

TEST_F(PipelineFixture, UserInterceptorsRunInRegistrationOrderAndUnwindReversed) {
  std::vector<std::string> log;
  client.add_client_interceptor(std::make_unique<ProbeClientInterceptor>("a", log));
  client.add_client_interceptor(std::make_unique<ProbeClientInterceptor>("b", log));
  server.add_server_interceptor(std::make_unique<ProbeServerInterceptor>("s", log));

  const ObjectRef ref = make_echo();
  std::optional<CompletionStatus> status;
  client.invoke(ref, "echo", {1}, InvokeOptions{},
                [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  ASSERT_EQ(status, CompletionStatus::Ok);

  const std::vector<std::string> expected = {
      "a.establish",    "b.establish",       // forward, before marshal
      "a.send_request", "b.send_request",    // forward, post-marshal
      "s.receive_request", "s.send_reply",   // server side
      "b.receive_reply", "a.receive_reply",  // reverse unwind
  };
  EXPECT_EQ(log, expected);
}

TEST_F(PipelineFixture, UserServerInterceptorObservesResolvedRequest) {
  std::vector<std::string> log;
  auto& probe = static_cast<ProbeServerInterceptor&>(server.add_server_interceptor(
      std::make_unique<ProbeServerInterceptor>("s", log)));

  const ObjectRef ref = make_echo();
  InvokeOptions opts;
  opts.priority = 12'345;
  client.invoke(ref, "echo", {1}, opts, [](CompletionStatus, std::vector<std::uint8_t>) {});
  engine.run();
  // The ORB ran first: priority and send timestamp already extracted.
  EXPECT_EQ(probe.priority_seen, 12'345);
  EXPECT_TRUE(probe.had_send_time);
}

// --- veto short-circuits --------------------------------------------------------

TEST_F(PipelineFixture, ClientVetoShortCircuitsBeforeAnyCost) {
  std::vector<std::string> log;
  auto& probe = static_cast<ProbeClientInterceptor&>(client.add_client_interceptor(
      std::make_unique<ProbeClientInterceptor>("gate", log)));
  probe.veto_establish = true;

  const ObjectRef ref = make_echo();
  std::optional<CompletionStatus> status;
  client.invoke(ref, "echo", {1}, InvokeOptions{},
                [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  // The veto completes the invocation synchronously: no engine time needed.
  ASSERT_EQ(status, CompletionStatus::SystemError);
  engine.run();
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(client.stats().requests_sent, 0u);
  EXPECT_EQ(client.stats().client_vetoed, 1u);
  EXPECT_EQ(server.stats().requests_dispatched, 0u);
}

TEST_F(PipelineFixture, ServerVetoRejectsBeforeServantWork) {
  std::vector<std::string> log;
  auto& probe = static_cast<ProbeServerInterceptor&>(server.add_server_interceptor(
      std::make_unique<ProbeServerInterceptor>("gate", log)));
  probe.vetoes_remaining = 1;
  probe.veto_status = CompletionStatus::Transient;

  const ObjectRef ref = make_echo();
  std::optional<CompletionStatus> status;
  client.invoke(ref, "echo", {1}, InvokeOptions{},
                [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  ASSERT_EQ(status, CompletionStatus::Transient);
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(server.stats().server_vetoed, 1u);
  EXPECT_EQ(server.stats().requests_dispatched, 0u);
}

TEST_F(PipelineFixture, SendReplyVetoSuppressesTheReply) {
  std::vector<std::string> log;
  auto& probe = static_cast<ProbeServerInterceptor&>(server.add_server_interceptor(
      std::make_unique<ProbeServerInterceptor>("gate", log)));
  probe.veto_reply = true;

  const ObjectRef ref = make_echo();
  std::optional<CompletionStatus> status;
  InvokeOptions opts;
  opts.timeout = milliseconds(50);
  client.invoke(ref, "echo", {1}, opts,
                [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  EXPECT_EQ(handled, 1);  // the servant DID run; only the reply was dropped
  ASSERT_EQ(status, CompletionStatus::Timeout);
  EXPECT_EQ(server.stats().server_vetoed, 1u);
}

// --- deadline / retry -----------------------------------------------------------

TEST_F(PipelineFixture, ExpiredDeadlineDropsBeforeServantWork) {
  const ObjectRef ref = make_echo();
  ObjectStub stub(client, ref);
  // 100 us propagation delay guarantees the 50 us end-to-end deadline has
  // expired by the time the request reaches the server's receive chain.
  stub.set_deadline(microseconds(50));
  std::optional<CompletionStatus> status;
  stub.twoway("echo", {1},
              [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  ASSERT_EQ(status, CompletionStatus::Timeout);
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(server.stats().deadline_dropped, 1u);
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
  EXPECT_EQ(server.stats().deadline_dropped, 0u);
}

TEST_F(PipelineFixture, TruncatedOrbContextsAreDroppedLikeMalformedMessages) {
  // A registered client interceptor stamps its contexts first, so the
  // server finds this 2-byte body before the ORB's well-formed one.
  std::vector<std::string> log;
  auto& stamper = static_cast<ProbeClientInterceptor&>(client.add_client_interceptor(
      std::make_unique<ProbeClientInterceptor>("truncate", log)));
  stamper.stamp_data = {0xAB, 0xCD};
  const ObjectRef ref = make_echo();
  InvokeOptions opts;
  opts.timeout = milliseconds(50);
  for (const std::uint32_t id : {kRtCorbaPriorityContextId, kTimestampContextId,
                                 kTraceContextId, kDeadlineContextId}) {
    stamper.stamp_context_id = id;
    std::optional<CompletionStatus> status;
    client.invoke(ref, "echo", {1}, opts,
                  [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
    engine.run();
    EXPECT_EQ(status, CompletionStatus::Timeout) << "context id " << id;
  }
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(server.stats().requests_dispatched, 0u);

  // The server survived and serves a well-formed request.
  stamper.stamp_context_id = 0;
  std::optional<CompletionStatus> status;
  client.invoke(ref, "echo", {1}, opts,
                [&](CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  EXPECT_EQ(status, CompletionStatus::Ok);
  EXPECT_EQ(handled, 1);
}

TEST_F(PipelineFixture, RetrySucceedsAfterTransientVetoes) {
  std::vector<std::string> log;
  auto& flaky = static_cast<ProbeServerInterceptor&>(server.add_server_interceptor(
      std::make_unique<ProbeServerInterceptor>("flaky", log)));
  flaky.vetoes_remaining = 2;
  flaky.veto_status = CompletionStatus::Transient;

  const ObjectRef ref = make_echo();
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
  EXPECT_EQ(handled, 1);  // only the final attempt reached the servant
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(server.stats().server_vetoed, 2u);
  // Exponential backoff: 10 ms after attempt 1, 20 ms after attempt 2.
  ASSERT_TRUE(done_at);
  EXPECT_GE(*done_at, TimePoint{milliseconds(30).ns()});
}

TEST_F(PipelineFixture, RetryExhaustionReportsLastError) {
  std::vector<std::string> log;
  auto& flaky = static_cast<ProbeServerInterceptor&>(server.add_server_interceptor(
      std::make_unique<ProbeServerInterceptor>("flaky", log)));
  flaky.vetoes_remaining = 100;  // never recovers

  const ObjectRef ref = make_echo();
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
  EXPECT_EQ(server.stats().server_vetoed, 3u);
  EXPECT_EQ(handled, 0);
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

// --- service contexts -----------------------------------------------------------

TEST_F(PipelineFixture, CustomServiceContextRoundTrips) {
  constexpr std::uint32_t kContextId = 0x600DF00D;
  std::vector<std::string> log;
  auto& stamper = static_cast<ProbeClientInterceptor&>(client.add_client_interceptor(
      std::make_unique<ProbeClientInterceptor>("stamp", log)));
  stamper.stamp_context_id = kContextId;
  stamper.stamp_data = {7, 8, 9};
  auto& watcher = static_cast<ProbeServerInterceptor&>(server.add_server_interceptor(
      std::make_unique<ProbeServerInterceptor>("watch", log)));
  watcher.watch_context_id = kContextId;

  const ObjectRef ref = make_echo();
  client.invoke(ref, "echo", {1}, InvokeOptions{},
                [](CompletionStatus, std::vector<std::uint8_t>) {});
  engine.run();
  EXPECT_EQ(watcher.context_data, (std::vector<std::uint8_t>{7, 8, 9}));
}

// --- worker-count invariance with interceptors installed ------------------------

struct PipelineTrialStats {
  std::uint64_t replies_ok = 0;
  std::uint64_t retries = 0;
  std::uint64_t server_vetoed = 0;
  std::uint64_t deadline_dropped = 0;
  std::uint64_t handled = 0;
  std::uint64_t events_executed = 0;

  bool operator==(const PipelineTrialStats&) const = default;
};

/// Self-contained trial: a batch of deadline-bound, retry-enabled twoways
/// against a server whose user interceptor vetoes every third request.
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

  class EveryThirdVeto final : public ServerRequestInterceptor {
   public:
    [[nodiscard]] const char* name() const override { return "test.flaky"; }
    InterceptStatus receive_request(ServerRequestContext&) override {
      if (++count_ % 3 == 0) return veto(CompletionStatus::Transient);
      return {};
    }

   private:
    int count_ = 0;
  };
  server.add_server_interceptor(std::make_unique<EveryThirdVeto>());

  PipelineTrialStats stats;
  Poa& poa = server.create_poa("app");
  auto servant = std::make_shared<FunctionServant>(
      microseconds(200), [&](ServerRequest& req) {
        ++stats.handled;
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
  stats.retries = client.stats().retries;
  stats.server_vetoed = server.stats().server_vetoed;
  stats.deadline_dropped = server.stats().deadline_dropped;
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
  // vetoes, and retries all occur.
  EXPECT_GT(serial.front().replies_ok, 0u);
  EXPECT_GT(serial.front().server_vetoed, 0u);
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
