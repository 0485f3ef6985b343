// Streaming QoS telemetry: windowed SLO monitors, breach/recovery
// hysteresis, flight-recorder dumps and the deterministic health sidecar
// (DESIGN.md §12). Unit tests drive the hub directly on its fixed window
// (100 ms buckets, 10-bucket ring); scenario tests push real packets
// through a congested net::Link and check the end-to-end contract,
// including byte-identical sidecars for any --jobs.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/qos_policy.hpp"
#include "core/qos_session.hpp"
#include "core/testbed.hpp"
#include "net/network.hpp"
#include "net/queue.hpp"
#include "obs/sidecar.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "orb/orb.hpp"
#include "orb/servant.hpp"
#include "sim/engine.hpp"

namespace aqm {
namespace {

// The hub's fixed window: 100 ms buckets, 10 per window; a flow breaches
// after two violating evaluations and recovers after two clean ones.
TimePoint at_ms(std::int64_t ms) { return TimePoint{milliseconds(ms).ns()}; }

TEST(SloMonitor, WindowAggregatesAndRates) {
  obs::TelemetryHub hub;
  obs::SloSpec spec;
  spec.max_miss_rate = 0.9;  // never violated here
  hub.set_slo(7, spec);

  for (int i = 0; i < 8; ++i) hub.on_call(7, at_ms(1), 2.0);
  hub.on_deadline_miss(7, at_ms(2));
  hub.on_deadline_miss(7, at_ms(2));
  for (int i = 0; i < 6; ++i) hub.on_delivery(7, at_ms(3), 1000);
  hub.on_drop(7, at_ms(4));
  hub.on_drop(7, at_ms(4));

  const obs::WindowStats w = hub.window(7, at_ms(5));
  EXPECT_EQ(w.calls, 10u);  // misses count as calls
  EXPECT_EQ(w.misses, 2u);
  EXPECT_EQ(w.deliveries, 6u);
  EXPECT_EQ(w.drops, 2u);
  EXPECT_EQ(w.bytes, 6000u);
  EXPECT_DOUBLE_EQ(w.miss_rate, 0.2);
  EXPECT_DOUBLE_EQ(w.drop_rate, 0.25);
  EXPECT_GT(w.p99_latency_ms, 1.0);
  EXPECT_LT(w.p99_latency_ms, 4.0);

  // The window is 10 buckets: everything above expires once the clock
  // moves a full window past the bucket that held it.
  const obs::WindowStats after = hub.window(7, at_ms(1'050));
  EXPECT_EQ(after.calls, 0u);
  EXPECT_EQ(after.deliveries, 0u);
  EXPECT_EQ(after.drops, 0u);
  EXPECT_DOUBLE_EQ(after.p99_latency_ms, 0.0);
}

TEST(SloMonitor, UnmonitoredFlowHasZeroWindow) {
  obs::TelemetryHub hub;
  hub.on_call(9, at_ms(1), 5.0);
  const obs::WindowStats w = hub.window(9, at_ms(2));
  EXPECT_EQ(w.calls, 0u);
  EXPECT_EQ(hub.slo(9), nullptr);
}

TEST(SloMonitor, SetAndClearSlo) {
  obs::TelemetryHub hub;
  obs::SloSpec spec;
  spec.max_drop_rate = 0.1;
  hub.set_slo(5, spec);
  ASSERT_NE(hub.slo(5), nullptr);
  EXPECT_DOUBLE_EQ(*hub.slo(5)->max_drop_rate, 0.1);
  hub.clear_slo(5);
  EXPECT_EQ(hub.slo(5), nullptr);
}

// Timeline: 5 drops in each of buckets [0,100) and [100,200) ms, 5
// deliveries in every bucket through [1100,1200). Evaluations at each
// boundary: bad at 100 ms (streak 1), bad at 200 ms (streak 2 -> breach),
// still bad while both drop buckets remain in the window; at 1100 ms only
// the second is left (5 drops of 55, under 0.1): clean (streak 1), and at
// 1200 ms clean again (streak 2 -> recovery).
TEST(SloMonitor, BreachAndRecoveryHysteresis) {
  obs::TelemetryHub hub;
  obs::SloSpec spec;
  spec.max_drop_rate = 0.1;
  hub.set_slo(5, spec);

  for (int b = 0; b < 12; ++b) {
    for (int i = 0; i < 5; ++i) hub.on_delivery(5, at_ms(100 * b + 1), 100);
    if (b < 2) {
      for (int i = 0; i < 5; ++i) hub.on_drop(5, at_ms(100 * b + 2));
    }
  }
  hub.poll(at_ms(1'300));

  ASSERT_EQ(hub.events().size(), 2u);
  const obs::HealthEvent& breach = hub.events()[0];
  EXPECT_TRUE(breach.breach);
  EXPECT_STREQ(breach.metric, "drop_rate");
  EXPECT_EQ(breach.t_ns, milliseconds(200).ns());
  EXPECT_EQ(breach.flow, 5u);
  EXPECT_DOUBLE_EQ(breach.threshold, 0.1);
  EXPECT_DOUBLE_EQ(breach.value, 0.5);
  EXPECT_EQ(breach.window.drops, 10u);
  EXPECT_EQ(breach.window.deliveries, 10u);

  const obs::HealthEvent& recovery = hub.events()[1];
  EXPECT_FALSE(recovery.breach);
  EXPECT_EQ(recovery.t_ns, milliseconds(1'200).ns());

  const obs::HealthReport report = hub.report();
  ASSERT_EQ(report.flows.count(5u), 1u);
  const obs::FlowHealthSummary& s = report.flows.at(5u);
  EXPECT_EQ(s.breaches, 1u);
  EXPECT_EQ(s.recoveries, 1u);
  EXPECT_EQ(s.breached_ns, milliseconds(1'000).ns());
  EXPECT_FALSE(hub.breached(5));
}

TEST(SloMonitor, EmptyWindowsCountCleanAndRecover) {
  obs::TelemetryHub hub;
  obs::SloSpec spec;
  spec.max_drop_rate = 0.1;
  hub.set_slo(5, spec);
  for (int i = 0; i < 5; ++i) hub.on_drop(5, at_ms(1));
  hub.poll(at_ms(250));
  EXPECT_TRUE(hub.breached(5));
  // No traffic at all afterwards: once the drop bucket leaves the window
  // the empty evaluations count clean, so an idle flow recovers.
  hub.poll(at_ms(2'000));
  EXPECT_FALSE(hub.breached(5));
  ASSERT_EQ(hub.events().size(), 2u);
  EXPECT_FALSE(hub.events()[1].breach);
}

TEST(SloMonitor, ViolationPriorityMissRateFirst) {
  obs::TelemetryHub hub;
  obs::SloSpec spec;
  spec.max_miss_rate = 0.1;
  spec.max_drop_rate = 0.1;
  hub.set_slo(5, spec);
  // Both rates are violated in the same window; the breach names the
  // highest-priority metric (miss_rate before drop_rate).
  hub.on_call(5, at_ms(1), 2.0);
  hub.on_deadline_miss(5, at_ms(2));
  hub.on_delivery(5, at_ms(3), 100);
  hub.on_drop(5, at_ms(4));
  hub.poll(at_ms(250));
  ASSERT_EQ(hub.events().size(), 1u);
  EXPECT_STREQ(hub.events()[0].metric, "miss_rate");
}

TEST(SloMonitor, P99LatencyBreachFromLogHistogram) {
  obs::TelemetryHub hub;
  obs::SloSpec spec;
  spec.max_p99_latency_ms = 50.0;
  hub.set_slo(5, spec);
  for (int b = 0; b < 2; ++b) {
    for (int i = 0; i < 98; ++i) hub.on_call(5, at_ms(100 * b + 1), 1.0);
    hub.on_call(5, at_ms(100 * b + 2), 500.0);
    hub.on_call(5, at_ms(100 * b + 2), 500.0);
  }
  hub.poll(at_ms(250));
  ASSERT_FALSE(hub.events().empty());
  const obs::HealthEvent& e = hub.events()[0];
  EXPECT_TRUE(e.breach);
  EXPECT_STREQ(e.metric, "p99_latency_ms");
  // The p99 lands in the log bucket holding 500 ms; geometric buckets give
  // bounded relative error, not an exact value.
  EXPECT_GT(e.value, 50.0);
  EXPECT_LT(e.value, 1000.0);
}

TEST(FlightRecorder, DumpContainsOnlyImplicatedEvents) {
  obs::TelemetryHub hub;
  obs::SloSpec spec;
  spec.max_drop_rate = 0.1;
  hub.set_slo(5, spec);

  obs::TraceRecorder& ring = hub.flight();
  const std::uint16_t track = ring.track("test");
  // Implicated by trace id: on_call registers 7 as recently seen.
  hub.on_call(5, at_ms(1), 2.0, /*trace=*/7);
  ring.instant(obs::TraceCategory::Net, "send", track, at_ms(1), 7);
  // Implicated by flow argument.
  ring.instant(obs::TraceCategory::Net, "drop", track, at_ms(2), 0, {{"flow", 5.0}});
  // Unrelated: foreign trace id and foreign flow.
  ring.instant(obs::TraceCategory::Net, "send", track, at_ms(1), 9);
  ring.instant(obs::TraceCategory::Net, "drop", track, at_ms(2), 0, {{"flow", 6.0}});

  for (int i = 0; i < 5; ++i) hub.on_drop(5, at_ms(3));
  hub.poll(at_ms(250));

  ASSERT_EQ(hub.dumps().size(), 1u);
  const obs::FlightDump& d = hub.dumps()[0];
  EXPECT_EQ(d.flow, 5u);
  EXPECT_EQ(d.metric, "drop_rate");
  EXPECT_EQ(d.ring_overwritten, 0u);
  ASSERT_EQ(d.events.size(), 2u);
  EXPECT_EQ(d.events[0].id, 7u);
  EXPECT_EQ(d.events[1].name, "drop");
  ASSERT_EQ(d.events[1].argc, 1u);
  EXPECT_EQ(d.events[1].args[0].first, "flow");
  EXPECT_DOUBLE_EQ(d.events[1].args[0].second, 5.0);
}

TEST(HealthSidecar, DeterministicBytesAndNonFiniteAsNull) {
  obs::HealthReport report;
  obs::HealthEvent e;
  e.t_ns = milliseconds(20).ns();
  e.flow = 5;
  e.breach = true;
  e.metric = "drop_rate";
  e.value = 0.5;
  e.threshold = 0.1;
  report.events.push_back(e);
  e.value = std::nan("");
  report.events.push_back(e);
  report.flows[5] = {2, 1, milliseconds(30).ns()};

  obs::TrialObs trial;
  trial.health = report;
  std::ostringstream a;
  std::ostringstream b;
  obs::write_health_sidecar(a, {{"trial", trial}});
  obs::write_health_sidecar(b, {{"trial", trial}});
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"drop_rate\""), std::string::npos);
  EXPECT_NE(a.str().find("null"), std::string::npos);
  EXPECT_EQ(a.str().find("nan"), std::string::npos);
}

// --- QoSSession wiring ------------------------------------------------------

TEST(QoSSessionSlo, InstallsAndRevokesThroughPolicy) {
  core::PriorityTestbed bed((core::PriorityTestbedParams{}));
  obs::TelemetryHub hub;
  bed.engine.set_telemetry(&hub);

  orb::Poa& poa = bed.receiver_orb.create_poa("app");
  auto servant = std::make_shared<orb::FunctionServant>(microseconds(100),
                                                        [](orb::ServerRequest&) {});
  const orb::ObjectRef target = poa.activate_object("target", servant);
  orb::ObjectStub stub(bed.sender_orb, target);
  stub.set_flow(core::kFlowSender1);

  core::QoSSession session(bed.sender_orb, stub);
  core::EndToEndQosPolicy policy;
  policy.flow = core::kFlowSender1;
  policy.slo = obs::SloSpec{};
  policy.slo->max_drop_rate = 0.05;

  std::optional<bool> outcome;
  session.apply(policy, [&](Status<std::string> s) { outcome = s.ok(); });
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(*outcome);
  ASSERT_NE(hub.slo(core::kFlowSender1), nullptr);
  EXPECT_DOUBLE_EQ(*hub.slo(core::kFlowSender1)->max_drop_rate, 0.05);

  session.revoke();
  EXPECT_EQ(hub.slo(core::kFlowSender1), nullptr);
  bed.engine.set_telemetry(nullptr);
}

TEST(QoSSessionSlo, RequiresFlowAndHub) {
  core::PriorityTestbed bed((core::PriorityTestbedParams{}));
  orb::Poa& poa = bed.receiver_orb.create_poa("app");
  auto servant = std::make_shared<orb::FunctionServant>(microseconds(100),
                                                        [](orb::ServerRequest&) {});
  const orb::ObjectRef target = poa.activate_object("target", servant);
  orb::ObjectStub stub(bed.sender_orb, target);

  core::QoSSession session(bed.sender_orb, stub);
  core::EndToEndQosPolicy policy;
  policy.slo = obs::SloSpec{};
  policy.slo->max_drop_rate = 0.05;

  std::optional<Status<std::string>> outcome;
  session.apply(policy, [&](Status<std::string> s) { outcome = std::move(s); });
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok());
  EXPECT_NE(outcome->error().find("flow id"), std::string::npos);

  // With a flow but no hub on the engine, the apply still fails cleanly.
  policy.flow = core::kFlowSender1;
  outcome.reset();
  session.apply(policy, [&](Status<std::string> s) { outcome = std::move(s); });
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok());
  EXPECT_NE(outcome->error().find("TelemetryHub"), std::string::npos);
}

// --- end-to-end scenario ----------------------------------------------------

struct ScenarioOut {
  obs::HealthReport health;
  std::vector<obs::FlightDump> dumps;
};

// One trial: a 10 Mbps link with a 20-packet drop-tail queue; a burst at
// t = 1 ms overflows the queue (drops -> breach), then the line goes idle
// and the empty windows recover the flow. All observations arrive through
// the real net-layer hooks and the flight ring doubles as the engine
// tracer, exactly the shipped wiring.
ScenarioOut run_congestion_trial(std::size_t burst) {
  sim::Engine e;
  obs::TelemetryHub hub;
  e.set_telemetry(&hub);
  e.set_tracer(&hub.flight());

  obs::SloSpec spec;
  spec.max_drop_rate = 0.05;
  hub.set_slo(5, spec);

  net::Network net(e);
  const net::NodeId a = net.add_node("a");
  const net::NodeId b = net.add_node("b");
  net::LinkConfig link;
  link.bandwidth_bps = 10e6;
  link.propagation = microseconds(100);
  net.add_duplex_link(a, b, link,
                      [] { return std::make_unique<net::DropTailQueue>(20); });
  net.set_receiver(b, [](net::Packet&&) {});

  e.after(milliseconds(1), [&] {
    for (std::size_t i = 0; i < burst; ++i) {
      net::Packet p;
      p.dst = b;
      p.size_bytes = 1250;
      p.flow = 5;
      net.send(a, p);
    }
  });
  e.run();
  hub.finalize(at_ms(2'000));
  e.set_telemetry(nullptr);
  e.set_tracer(nullptr);

  ScenarioOut out;
  out.health = hub.report();
  out.dumps = hub.dumps();
  return out;
}

TEST(TelemetryScenario, CongestionBreachThenRecoveryWithFlightDump) {
  const ScenarioOut out = run_congestion_trial(100);

  ASSERT_GE(out.health.events.size(), 2u);
  const obs::HealthEvent& breach = out.health.events[0];
  EXPECT_TRUE(breach.breach);
  EXPECT_EQ(breach.flow, 5u);
  EXPECT_STREQ(breach.metric, "drop_rate");
  EXPECT_GT(breach.value, 0.05);
  EXPECT_DOUBLE_EQ(breach.threshold, 0.05);
  EXPECT_GT(breach.window.drops, 0u);
  // Boundary instants are integer multiples of the bucket width.
  EXPECT_EQ(breach.t_ns % milliseconds(100).ns(), 0);

  const obs::HealthEvent& last = out.health.events.back();
  EXPECT_FALSE(last.breach);

  ASSERT_EQ(out.health.flows.count(5u), 1u);
  EXPECT_GE(out.health.flows.at(5u).breaches, 1u);
  EXPECT_GE(out.health.flows.at(5u).recoveries, 1u);

  // The breach cut a flight dump whose events are attributed to the flow.
  ASSERT_FALSE(out.dumps.empty());
  const obs::FlightDump& d = out.dumps[0];
  EXPECT_EQ(d.flow, 5u);
  ASSERT_FALSE(d.events.empty());
  bool saw_drop = false;
  for (const obs::FlightEvent& fe : d.events) {
    if (fe.name == "drop") saw_drop = true;
  }
  EXPECT_TRUE(saw_drop);
}

TEST(TelemetryScenario, SidecarsByteIdenticalForAnyJobs) {
  auto build = [] {
    core::Experiment<ScenarioOut> exp;
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t burst = 60 + 20 * i;
      exp.add("burst-" + std::to_string(burst), /*seed=*/i,
              [burst](const core::TrialSpec&) { return run_congestion_trial(burst); });
    }
    return exp;
  };

  auto render = [&](unsigned jobs) {
    core::Experiment<ScenarioOut> exp = build();
    core::ExperimentOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    const auto results = exp.run(opts);
    std::vector<obs::TrialObs> bundles(results.size());
    std::vector<obs::NamedTrialObs> trials;
    for (std::size_t i = 0; i < results.size(); ++i) {
      bundles[i].health = results[i].health;
      bundles[i].flight_dumps = results[i].dumps;
      trials.push_back({exp.spec(i).name, bundles[i]});
    }
    std::ostringstream health;
    std::ostringstream flight;
    obs::write_health_sidecar(health, trials);
    obs::write_flight_sidecar(flight, trials);
    return std::make_pair(health.str(), flight.str());
  };

  const auto serial = render(1);
  const auto parallel = render(4);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_NE(serial.first.find("\"breach\""), std::string::npos);
}

}  // namespace
}  // namespace aqm
