#include "common/priority_scenario.hpp"

#include <cmath>
#include <iostream>
#include <memory>

#include "common/table.hpp"
#include "core/qos_session.hpp"
#include "net/flow_monitor.hpp"
#include "orb/orb.hpp"
#include "orb/servant.hpp"
#include "os/load_generator.hpp"
#include "sim/engine.hpp"

namespace aqm::bench {
namespace {

// Competing CPU load: 15 ms bursts every 25 ms on average, at a priority
// between the two mapped sender thread priorities.
constexpr os::Priority kCpuLoadPriority = 128;
constexpr Duration kCpuLoadBurst = milliseconds(15);
constexpr Duration kCpuLoadInterval = milliseconds(25);

// Message workload: ~1.2 Mbps per sender (paper Section 5.1).
constexpr double kMessagesPerSecond = 120.0;
constexpr std::uint32_t kMessageBytes = 1200;
constexpr Duration kServantCost = microseconds(300);

// The cross-traffic stream's seed is the trial seed plus this offset.
constexpr std::uint64_t kCrossSeedOffset = 31;

}  // namespace

PriorityScenarioResult run_priority_scenario(const PriorityScenarioConfig& cfg,
                                             const core::TrialSpec& spec) {
  core::PriorityTestbedParams params;
  params.diffserv_bottleneck = cfg.diffserv_router ||
                               cfg.sender1_policy.map_priority_to_dscp ||
                               cfg.sender2_policy.map_priority_to_dscp;
  params.cross_rate_bps = cfg.cross_rate_bps;
  params.router_queue_pkts = cfg.queue_pkts;
  params.cross_seed = spec.seed + kCrossSeedOffset;
  core::PriorityTestbed bed(params);

  PriorityScenarioResult result;

  core::TrialObserver observer(bed.engine, spec.sidecars);
  obs::TelemetryHub* hub = observer.hub();

  // Receiver-side FlowMonitor: a pure tap in front of the ORB transport's
  // receiver (swap_receiver chains it as downstream). It schedules no
  // events, so it changes no timing. Feeds the summary's drop and jitter
  // columns, jitter into the hub and the "recv.*" registry names.
  net::FlowMonitor monitor(bed.network, bed.receiver_node);

  // Two servants in two separate POAs, as in the paper's receiver host.
  auto make_sink = [&](const std::string& poa_name, TimeSeries& series,
                       std::uint64_t& count) {
    orb::Poa& poa = bed.receiver_orb.create_poa(poa_name);
    auto servant = std::make_shared<orb::FunctionServant>(
        kServantCost, [&series, &count, &bed](orb::ServerRequest& req) {
          ++count;
          if (req.client_send_time) {
            series.add(bed.engine.now(),
                       (bed.engine.now() - *req.client_send_time).millis());
          }
        });
    return poa.activate_object("sink", std::move(servant));
  };
  const orb::ObjectRef sink1 = make_sink("recv1", result.s1_latency_ms, result.s1_received);
  const orb::ObjectRef sink2 = make_sink("recv2", result.s2_latency_ms, result.s2_received);

  // Each sender's QoS (priority, DSCP mapping, flow id) is declared once in
  // its EndToEndQosPolicy and applied atomically through a QoSSession, which
  // writes it onto the sender's stub.
  // An SLO spec needs the hub; without one the policy applies without it.
  const auto bind = [hub](core::EndToEndQosPolicy policy) {
    if (hub == nullptr) policy.slo.reset();
    return policy;
  };
  orb::ObjectStub stub1(bed.sender_orb, sink1);
  core::QoSSession session1(bed.sender_orb, stub1);
  session1.apply(bind(cfg.sender1_policy));
  orb::ObjectStub stub2(bed.sender_orb, sink2);
  core::QoSSession session2(bed.sender_orb, stub2);
  session2.apply(bind(cfg.sender2_policy));

  const auto interval =
      Duration{static_cast<std::int64_t>(std::llround(1e9 / kMessagesPerSecond))};
  sim::PeriodicTimer task1(bed.engine, interval, [&] {
    ++result.s1_sent;
    stub1.oneway("frame", std::vector<std::uint8_t>(kMessageBytes));
  });
  sim::PeriodicTimer task2(bed.engine, interval, [&] {
    ++result.s2_sent;
    stub2.oneway("frame", std::vector<std::uint8_t>(kMessageBytes));
  });

  std::unique_ptr<os::LoadGenerator> load;
  if (cfg.cpu_load) {
    os::LoadGenerator::Config load_cfg;
    load_cfg.priority = kCpuLoadPriority;
    load_cfg.burst_mean = kCpuLoadBurst;
    load_cfg.interval_mean = kCpuLoadInterval;
    load = std::make_unique<os::LoadGenerator>(bed.engine, bed.receiver_cpu, load_cfg,
                                               spec.seed);
    load->start();
  }

  task1.start();
  // Stagger the second task half a period so the senders do not always
  // collide on the shared uplink at the exact same instant.
  task2.start_after(interval / 2 + interval);
  if (cfg.cross_traffic) bed.cross_traffic->start();

  bed.engine.run_until(TimePoint::zero() + cfg.duration);
  task1.stop();
  task2.stop();
  if (cfg.cross_traffic) bed.cross_traffic->stop();
  if (load) load->stop();
  // Drain in-flight messages.
  bed.engine.run_until(TimePoint::zero() + cfg.duration + seconds(5));

  observer.finish(result.obs);
  const net::FlowId f1 = cfg.sender1_policy.flow.value_or(core::kFlowSender1);
  const net::FlowId f2 = cfg.sender2_policy.flow.value_or(core::kFlowSender2);
  result.s1_jitter_ms = monitor.jitter_ms(f1);
  result.s2_jitter_ms = monitor.jitter_ms(f2);
  result.s1_dropped = monitor.dropped(f1);
  result.s2_dropped = monitor.dropped(f2);

  if (observer.wants(core::kMetricsSidecar)) {
    obs::MetricsRegistry reg;
    bed.sender_orb.export_metrics(reg, "orb.sender");
    bed.receiver_orb.export_metrics(reg, "orb.receiver");
    bed.network.export_metrics(reg, "net");
    bed.sender_cpu.export_metrics(reg, "cpu.sender");
    bed.receiver_cpu.export_metrics(reg, "cpu.receiver");
    // Receiver-side quality signals go through registry names (not ad-hoc
    // prints): recv.flow<id>.jitter_ms / .dropped / .interarrival_ms etc.
    monitor.export_metrics(reg, "recv");
    if (hub) hub->export_metrics(reg, "telemetry");
    reg.counter("scenario.s1_sent").set(result.s1_sent);
    reg.counter("scenario.s2_sent").set(result.s2_sent);
    reg.counter("scenario.s1_received").set(result.s1_received);
    reg.counter("scenario.s2_received").set(result.s2_received);
    reg.stats("scenario.s1_latency_ms").merge(result.s1_latency_ms.stats());
    reg.stats("scenario.s2_latency_ms").merge(result.s2_latency_ms.stats());
    auto& h1 = reg.histogram("scenario.s1_latency_ms_hist", 0.0, 2000.0, 100);
    for (const auto& pt : result.s1_latency_ms.points()) h1.add(pt.value);
    auto& h2 = reg.histogram("scenario.s2_latency_ms_hist", 0.0, 2000.0, 100);
    for (const auto& pt : result.s2_latency_ms.points()) h2.add(pt.value);
    result.obs.metrics = reg.snapshot();
  }
  return result;
}

void print_latency_series(const PriorityScenarioResult& result, Duration bucket,
                          TimePoint end) {
  const auto b1 = result.s1_latency_ms.bucketize(bucket, end);
  const auto b2 = result.s2_latency_ms.bucketize(bucket, end);
  TextTable table({"t(s)", "s1 msgs", "s1 mean(ms)", "s1 max(ms)", "s2 msgs",
                   "s2 mean(ms)", "s2 max(ms)"});
  for (std::size_t i = 0; i < b1.size(); ++i) {
    const auto& r1 = b1[i];
    const auto& r2 = i < b2.size() ? b2[i] : b1[i];
    table.row({fmt(r1.start.seconds(), 0), std::to_string(r1.count), fmt(r1.mean),
               fmt(r1.max), std::to_string(r2.count), fmt(r2.mean), fmt(r2.max)});
  }
  table.print();
}

void print_summary(const std::string& title, const PriorityScenarioResult& result) {
  const RunningStats s1 = result.s1_stats();
  const RunningStats s2 = result.s2_stats();
  std::cout << "\n" << title << "\n";
  TextTable table({"sender", "sent", "delivered", "dropped", "loss%", "mean(ms)",
                   "stddev(ms)", "min(ms)", "max(ms)", "jitter(ms)"});
  auto add = [&](const char* name, std::uint64_t sent, std::uint64_t recv,
                 std::uint64_t dropped, double jitter, const RunningStats& s) {
    const double loss =
        sent == 0 ? 0.0
                  : 100.0 * static_cast<double>(sent - std::min(sent, recv)) /
                        static_cast<double>(sent);
    table.row({name, std::to_string(sent), std::to_string(recv),
               std::to_string(dropped), fmt(loss, 1), fmt(s.mean()), fmt(s.stddev()),
               fmt(s.empty() ? 0 : s.min()), fmt(s.empty() ? 0 : s.max()),
               fmt(jitter)});
  };
  add("sender1", result.s1_sent, result.s1_received, result.s1_dropped,
      result.s1_jitter_ms, s1);
  add("sender2", result.s2_sent, result.s2_received, result.s2_dropped,
      result.s2_jitter_ms, s2);
  table.print();
}

}  // namespace aqm::bench
