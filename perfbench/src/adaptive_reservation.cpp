// adaptive_reservation: RSVP-admitted ORB flows under the 43.8 Mbps load
// pulse, with the runtime control plane closing the loop (net + core + obs
// + quo).
//
// On the Fig. 7 / Table 1 testbed (sender and load source share a switch
// whose 10 Mbps IntServ egress is the bottleneck, RSVP agents everywhere)
// tens of oneway flows are admitted through QoSSession -> RSVP with a
// drop-rate SLO each. A FeedbackScheduler re-divides the bottleneck's
// reservation pool every epoch, a QosControlPlane override flips a few
// flows' priority and DSCP every second, and a telemetry report is read
// every second. Two "crowd" flows step their offered rate far past their
// admitted rate at staggered times; one best-effort video stream is
// filtered by a QuO rate-adaptation contract. Steady flows stay inside the
// smallest share the controller can leave them and are the protected
// operations; crowd and video traffic is unprotected by design.
#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "avstreams/rate_adaptation.hpp"
#include "avstreams/stream.hpp"
#include "bench.hpp"
#include "layers.hpp"
#include "common/rng.hpp"
#include "core/feedback_scheduler.hpp"
#include "core/qos_control_plane.hpp"
#include "core/qos_policy.hpp"
#include "core/qos_session.hpp"
#include "core/testbed.hpp"
#include "media/frame_filter.hpp"
#include "media/gop.hpp"
#include "media/video_source.hpp"
#include "obs/telemetry.hpp"
#include "orb/orb.hpp"
#include "orb/servant.hpp"
#include "quo/status_channel.hpp"

namespace perfbench {

using namespace aqm;

namespace {

struct AdaptParams {
  int steady;
  int crowd;
  Duration traffic;
  Duration load_from;
  Duration load_to;
};

constexpr net::FlowId kFirstFlow = 1'001;
constexpr std::size_t kMessageBytes = 400;
constexpr double kBaseRateBps = 150e3;
constexpr double kCrowdRateBps = 600e3;
constexpr double kAdmittedBps = 250e3;  // 32 flows: 8 Mbps of 9 reservable
constexpr std::uint32_t kBucketBytes = 40'000;
constexpr TimePoint kTrafficStart{milliseconds(500).ns()};
constexpr Duration kEpoch = milliseconds(500);
constexpr int kManagedFlows = 4;

// The controller's pool stays inside the bottleneck's reservable share;
// with drop_weight 1 a crowd flow's weight is at most 1.25 against 0.25
// for a steady flow, so with 30 steady and 2 crowd flows a steady flow
// keeps >= 8.4 Mbps * 0.25 / 10 = 210 kbps even with both crowd flows
// fully starved — above kBaseRateBps.
constexpr core::FeedbackConfig kController{
    .epoch = kEpoch,
    .net_pool_bps = 8.4e6,
    .min_share = 0.25,
    .smoothing = 0.5,
    .hysteresis = 0.05,
    .miss_weight = 0.0,
    .drop_weight = 1.0,
    .latency_weight = 0.0,
};

Duration interval_for(double rate_bps) {
  return Duration{std::llround(1e9 * 8.0 * static_cast<double>(kMessageBytes) / rate_bps)};
}

struct AppFlow {
  AppFlow(orb::OrbEndpoint& orb, const orb::ObjectRef& ref, core::NetworkQosManager& qos)
      : stub(orb, ref), session(orb, stub, &qos) {}
  orb::ObjectStub stub;
  core::QoSSession session;
  Rng rng;
  Duration interval{};  // mean gap between messages
  net::FlowId flow = 0;
  bool crowd = false;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
};

}  // namespace

IterationResult run_adaptive_reservation(const RunOptions& opt) {
  const AdaptParams P = opt.scale == Scale::Tiny
                            ? AdaptParams{4, 1, seconds(3), seconds(1), seconds(2)}
                            : AdaptParams{30, 2, seconds(60), seconds(5), seconds(50)};
  SpanRecorder* const spans = opt.spans;
  IterationResult r;
  const std::int64_t t_setup = host_ns();
  const TimePoint traffic_end = TimePoint::zero() + P.traffic;

  core::ReservationTestbedParams params;
  params.load_seed = derive_seed(opt.seed, 1);
  std::unique_ptr<core::ReservationTestbed> bed_owner;
  {
    Scoped s(spans, "core.testbed");
    bed_owner = std::make_unique<core::ReservationTestbed>(params);
  }
  core::ReservationTestbed& bed = *bed_owner;
  sim::Engine& engine = bed.engine;
  net::Link& bottleneck_link = *bed.network.link_between(bed.switch_node, bed.receiver_node);
  net::Link& sender_link = *bed.network.link_between(bed.sender_node, bed.switch_node);
  auto& bottleneck = static_cast<net::IntServQueue&>(bottleneck_link.queue());

  obs::TelemetryHub hub;
  std::deque<AppFlow> flows;
  std::unique_ptr<core::FeedbackScheduler> controller;
  std::unique_ptr<core::QosControlPlane> plane;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
  std::uint64_t rsvp_ok = 0;
  std::uint64_t rsvp_failed = 0;
  std::uint64_t report_events = 0;
  double reserved_util_max = 0.0;
  int override_turn = 0;
  std::function<void(AppFlow&)> send;

  // Video: best effort, filtered by the QuO rate-adaptation qosket.
  const media::GopStructure gop = media::GopStructure::mpeg1_paper_profile();
  media::FrameFilter filter(media::FilterLevel::Full);
  std::unique_ptr<av::VideoSinkEndpoint> video_sink;
  std::unique_ptr<av::StreamBinding> video;
  std::unique_ptr<av::RateAdaptationQosket> qosket;
  std::unique_ptr<media::VideoSource> source;
  std::unique_ptr<quo::StatusCollector> collector;
  std::unique_ptr<quo::StatusReporter> reporter;
  std::uint64_t frames_sourced = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t last_rx = 0;
  std::uint64_t last_tx = 0;

  const auto check_reservations = [&] {
    reserved_util_max = std::max(reserved_util_max,
                                 check_reservable(r, {&bottleneck_link, &sender_link}));
  };

  {
    Scoped setup_span(spans, "bench.setup");
    engine.set_telemetry(&hub);
    engine.set_tracer(&hub.flight());

    // --- admitted application flows ------------------------------------------
    orb::Poa& app_poa = bed.receiver_orb.create_poa("app");
    Rng rng(derive_seed(opt.seed, 2));
    const int n = P.steady + P.crowd;
    obs::SloSpec slo;
    slo.max_drop_rate = 0.05;
    // Open loop with jittered gaps (uniform 0.5-1.5x the mean), so flows
    // drift against each other instead of repeating one phase pattern.
    send = [&, spans](AppFlow& f) {
      {
        Scoped s(spans, "orb.invoke", f.flow);
        ++f.sent;
        f.stub.oneway("data", std::vector<std::uint8_t>(kMessageBytes));
      }
      const Duration gap{static_cast<std::int64_t>(
          static_cast<double>(f.interval.ns()) * f.rng.uniform(0.5, 1.5))};
      if (engine.now() + gap < traffic_end) engine.after(gap, [&f, &send] { send(f); });
    };
    for (int i = 0; i < n; ++i) {
      const net::FlowId flow = kFirstFlow + static_cast<net::FlowId>(i);
      const auto servant = std::make_shared<orb::FunctionServant>(
          microseconds(30), [&, spans, i](orb::ServerRequest& req) {
            AppFlow& af = flows[static_cast<std::size_t>(i)];
            Scoped s(spans, "bench.servant", af.flow);
            ++af.received;
            r.check(req.client_send_time.has_value(), "orb: request without a send timestamp");
            const TimePoint sent = req.client_send_time.value_or(engine.now());
            if (!af.crowd) r.latency_ns.push_back((engine.now() - sent).ns());
          });
      const orb::ObjectRef ref = app_poa.activate_object("sink" + std::to_string(i), servant);
      AppFlow* const f = &flows.emplace_back(bed.sender_orb, ref, bed.qos);
      f->flow = flow;
      f->crowd = i >= P.steady;
      core::EndToEndQosPolicy policy;
      policy.flow = flow;
      policy.priority = 10'000;
      policy.network_reservation = net::FlowSpec{kAdmittedBps, kBucketBytes};
      policy.slo = slo;
      {
        Scoped s(spans, "core.apply", flow);
        f->session.apply(policy,
                         [&](Status<std::string> st) { ++(st.ok() ? rsvp_ok : rsvp_failed); });
      }
      f->rng = Rng(rng.next_u64());
      f->interval = interval_for(kBaseRateBps);
      engine.at(kTrafficStart + Duration{f->rng.uniform_int(0, f->interval.ns() - 1)},
                [f, &send] { send(*f); });
      if (f->crowd) {
        // Staggered flash-crowd steps: 1 s after the load onset, then every 1.5 s.
        const TimePoint step = TimePoint::zero() + P.load_from + seconds(1) +
                               milliseconds(1'500) * (i - P.steady);
        engine.at(step, [f] { f->interval = interval_for(kCrowdRateBps); });
      }
    }

    // --- feedback controller, driven epoch by epoch from here ----------------
    controller = std::make_unique<core::FeedbackScheduler>(engine, hub, kController);
    for (const AppFlow& f : flows) controller->control_rate(f.flow, bottleneck, kBucketBytes);
    timers.push_back(std::make_unique<sim::PeriodicTimer>(engine, kEpoch, [&, spans] {
      {
        Scoped s(spans, "core.epoch");
        controller->run_epoch(engine.now());
      }
      check_reservations();
    }));

    // --- control-plane overrides ---------------------------------------------
    orb::Poa& ctrl_poa = bed.sender_orb.create_poa("ctrl");
    plane = std::make_unique<core::QosControlPlane>(ctrl_poa);
    for (int i = 0; i < kManagedFlows && i < P.steady; ++i) {
      plane->manage(flows[static_cast<std::size_t>(i)].flow,
                    flows[static_cast<std::size_t>(i)].session);
    }
    timers.push_back(std::make_unique<sim::PeriodicTimer>(engine, seconds(1), [&, spans] {
      const int managed = std::min(kManagedFlows, P.steady);
      const net::FlowId flow = flows[static_cast<std::size_t>(override_turn % managed)].flow;
      const bool clear = (override_turn / managed) % 2 == 1;
      ++override_turn;
      Scoped s(spans, "core.update", flow);
      core::PolicyOverride ov;
      ov.priority = 20'000;
      ov.dscp = net::dscp::kAf41;
      const auto st = clear ? plane->clear_override(flow) : plane->override_flow(flow, ov);
      r.check(st.ok(), "core: control-plane override failed");
    }));

    // --- telemetry report every second ---------------------------------------
    timers.push_back(std::make_unique<sim::PeriodicTimer>(engine, seconds(1), [&, spans] {
      Scoped s(spans, "obs.report");
      hub.poll(engine.now());
      const obs::HealthReport rep = hub.report();
      report_events += rep.events.size();
    }));

    // --- QuO-filtered best-effort video --------------------------------------
    orb::Poa& video_poa = bed.receiver_orb.create_poa("video");
    video_sink = std::make_unique<av::VideoSinkEndpoint>(
        video_poa, "display", microseconds(200), [](const media::VideoFrame&) {});
    video = std::make_unique<av::StreamBinding>(bed.sender_orb, video_sink->ref(),
                                                core::kFlowVideo);
    av::RateAdaptationConfig qcfg;
    qcfg.ip_stream_rate_bps = gop.rate_bps_filtered(30.0, true, true, false);
    qosket = std::make_unique<av::RateAdaptationQosket>(engine, filter, qcfg);
    source = std::make_unique<media::VideoSource>(
        engine, gop, 30.0, [&, spans](const media::VideoFrame& frame) {
          Scoped s(spans, "bench.frame", frame.index);
          ++frames_sourced;
          if (!filter.filter(frame)) return;
          ++frames_sent;
          Scoped o(spans, "orb.invoke", frame.index);
          video->push(frame);
        });
    collector = std::make_unique<quo::StatusCollector>(ctrl_poa, "video-status");
    quo::ValueSysCond& rx_total = collector->condition("frames_received");
    reporter = std::make_unique<quo::StatusReporter>(bed.receiver_orb, collector->ref(),
                                                     milliseconds(500));
    reporter->probe("frames_received",
                    [&] { return static_cast<double>(video_sink->frames_received()); });
    rx_total.subscribe([&, spans] {
      Scoped s(spans, "quo.report");
      const auto rx = static_cast<std::uint64_t>(rx_total.value());
      const std::uint64_t drx = rx - last_rx;
      const std::uint64_t dtx = frames_sent - last_tx;
      last_rx = rx;
      last_tx = frames_sent;
      if (dtx > 0) qosket->report(static_cast<double>(drx) / static_cast<double>(dtx));
    });

    // --- schedule -------------------------------------------------------------
    source->run_between(kTrafficStart, traffic_end);
    bed.load_traffic->run_between(TimePoint::zero() + P.load_from,
                                  TimePoint::zero() + P.load_to);
    reporter->start();
    for (auto& t : timers) t->start();
    engine.at(traffic_end, [&] {
      for (auto& t : timers) t->stop();
      reporter->stop();
    });
  }
  r.setup_s = static_cast<double>(host_ns() - t_setup) / 1e9;

  const std::int64_t t_run = host_ns();
  drain(engine, milliseconds(10), traffic_end + seconds(60), spans, r);
  r.run_s = static_cast<double>(host_ns() - t_run) / 1e9;
  r.events = engine.executed();
  hub.finalize(engine.now());
  engine.set_telemetry(nullptr);
  engine.set_tracer(nullptr);

  // --- harvest and checks ---------------------------------------------------
  check_reservations();
  r.check(rsvp_failed == 0 && rsvp_ok == flows.size(),
          "net: an RSVP reservation was not admitted");
  std::uint64_t app_sent = 0;
  bool per_flow_ok = true;
  for (const AppFlow& f : flows) {
    app_sent += f.sent;
    const net::FlowCounters& c = bed.network.flow(f.flow);
    per_flow_ok = per_flow_ok && c.sent == c.delivered + c.dropped;
    if (f.crowd) {
      r.other_attempted += f.sent;
      r.other_failed += f.sent - f.received;
    } else {
      r.attempted += f.sent;
      r.delivered += f.received;
    }
    for (const std::uint64_t v : {f.sent, f.received, c.sent, c.delivered, c.dropped}) {
      r.digest.add(v);
    }
  }
  r.other_attempted += frames_sent;
  r.other_failed += frames_sent - video_sink->frames_received();
  r.check(per_flow_ok, "net: a flow has sent != delivered + dropped");
  r.check(r.latency_ns.size() == r.delivered, "latency samples != protected deliveries");

  std::uint64_t net_flows = 0;
  for (const AppFlow& f : flows) net_flows += bed.network.flow(f.flow).sent > 0;
  for (const net::FlowId f : {core::kFlowVideo, core::kFlowCross}) {
    net_flows += bed.network.flow(f).sent > 0;
  }
  record_net(r, bed.network,
             links_among(bed.network, {bed.sender_node, bed.switch_node, bed.receiver_node,
                                       bed.load_node}),
             bottleneck, net_flows);
  record_orb(r, bed.sender_orb, bed.receiver_orb, app_sent + frames_sent);
  record_os(r, bed.receiver_cpu, bed.sender_cpu, params.cpu.reserve_utilization_cap);

  const obs::HealthReport health = hub.report();
  std::uint64_t breaches = 0;
  std::uint64_t recoveries = 0;
  for (const auto& [flow, h] : health.flows) {
    breaches += h.breaches;
    recoveries += h.recoveries;
    r.digest.add(flow);
    r.digest.add_signed(h.breached_ns);
  }
  const std::uint64_t restamps = controller->restamps_applied() + controller->restamps_rejected();
  const std::uint64_t transitions = qosket->contract().transition_count();
  for (const std::uint64_t v :
       {controller->epochs_run(), controller->restamps_applied(), controller->restamps_rejected(),
        breaches, recoveries, static_cast<std::uint64_t>(hub.events().size()), report_events,
        frames_sourced, frames_sent, video_sink->frames_received(), transitions, r.events}) {
    r.digest.add(v);
  }
  r.digest.add_double(bottleneck.reserved_rate_bps());
  for (const std::int64_t ns : r.latency_ns) r.digest.add_signed(ns);

  auto& k = r.counts;
  k["net.reserved_util_max"] = reserved_util_max;
  k["core.epochs"] = static_cast<double>(controller->epochs_run());
  k["core.restamps_applied"] = static_cast<double>(controller->restamps_applied());
  k["core.restamps_rejected"] = static_cast<double>(controller->restamps_rejected());
  k["core.restamp_ratio"] = ratio(controller->restamps_applied(), restamps);
  k["obs.watched_flows"] = static_cast<double>(flows.size());
  k["obs.breaches"] = static_cast<double>(breaches);
  k["obs.recoveries"] = static_cast<double>(recoveries);
  k["obs.health_events"] = static_cast<double>(hub.events().size());
  k["quo.transitions"] = static_cast<double>(transitions);
  k["quo.frames_filtered_ratio"] = ratio(frames_sourced - frames_sent, frames_sourced);
  return r;
}

}  // namespace perfbench
