// Adaptive streaming demo: the reservation experiment as an interactive
// story. Streams MPEG-1 video across the 10 Mbps bottleneck; at t=20s a
// 43.8 Mbps load appears. A QuO contract watches the delivery ratio and
// the middleware reacts twice:
//   1. immediately: filter frames down to what the partial reservation
//      carries (data shaping), and
//   2. at t=40s: the application upgrades its reservation to full rate via
//      RSVP, after which the contract returns the stream to 30 fps even
//      though the load is still there.
// Both reservations are apply() calls on one QoSSession over the stream's
// stub: the upgrade re-signals the live reservation in place.
// Pass --trace FILE to capture the whole run as Chrome trace-event JSON
// (load in Perfetto): ORB call spans chain through per-hop link/queue
// events to the server dispatch and the QuO region transitions they cause.
// Pass --metrics FILE for the run's metrics sidecar. Pass --slo FILE to
// put the video flow under a drop-rate SLO: the 20s load breaches it, and
// the contract's immediate frame filtering (reaction 1) sheds enough load
// that the SLO recovers within ~1s — one breach/recovery pair in the
// health-event sidecar; --flight FILE writes the flight-recorder dumps
// cut at each breach.
#include <iostream>

#include "avstreams/stream.hpp"
#include "core/experiment.hpp"
#include "core/qos_session.hpp"
#include "core/testbed.hpp"
#include "media/frame_filter.hpp"
#include "media/video_sink.hpp"
#include "media/video_source.hpp"
#include "net/flow_monitor.hpp"
#include "orb/cdr.hpp"
#include "quo/contract.hpp"
#include "quo/syscond.hpp"

int main(int argc, char** argv) {
  using namespace aqm;

  const auto opts = core::parse_experiment_options(argc, argv, core::kAllSidecars);

  core::ReservationTestbed bed((core::ReservationTestbedParams{}));
  const media::GopStructure gop = media::GopStructure::mpeg1_paper_profile();

  // Telemetry (--slo/--flight): the video flow runs under a drop-rate SLO.
  core::TrialObserver observer(bed.engine, opts.sidecars());
  obs::TelemetryHub* hub = observer.hub();
  if (hub != nullptr) {
    obs::SloSpec slo;
    slo.max_drop_rate = 0.05;
    hub->set_slo(core::kFlowVideo, slo);
  }

  // Receiver-side per-flow accounting (jitter, inter-arrival, drops) goes
  // through registry names via the FlowMonitor tap, not ad-hoc prints.
  net::FlowMonitor monitor(bed.network, bed.receiver_node);

  media::VideoSinkStats stats(bed.engine, gop);
  orb::Poa& poa = bed.receiver_orb.create_poa("video");
  av::VideoSinkEndpoint sink(poa, "display", microseconds(400),
                             [&](const media::VideoFrame& f) { stats.on_received(f); });
  av::StreamBinding binding(bed.sender_orb, sink.ref(), core::kFlowVideo);

  media::FrameFilter filter(media::FilterLevel::Full);
  media::VideoSource source(bed.engine, gop, 30.0, [&](const media::VideoFrame& f) {
    stats.on_source(f);
    if (!filter.filter(f)) return;
    stats.on_transmitted(f);
    binding.push(f);
  });

  // QuO contract on the measured delivery ratio.
  quo::ValueSysCond ratio("delivery-ratio", 1.0);
  quo::ValueSysCond reserved_kbps("reserved-kbps", 730.0);
  quo::Contract contract(bed.engine, "stream-quality");
  contract
      .add_region("clean", [&] { return ratio.value() >= 0.92; })
      .add_region("shape-to-reservation", nullptr)
      .observe(ratio)
      .observe(reserved_kbps);
  contract.on_enter("shape-to-reservation", [&] {
    const auto level = reserved_kbps.value() >= 650.0 ? media::FilterLevel::IpOnly
                                                      : media::FilterLevel::IOnly;
    filter.set_level(level);
    std::cout << "  [QuO " << bed.engine.now().seconds() << "s] loss detected -> "
              << media::to_string(level) << "\n";
  });
  auto restore_full_rate = [&] {
    if (reserved_kbps.value() >= 1200.0 &&
        filter.level() != media::FilterLevel::Full) {
      filter.set_level(media::FilterLevel::Full);
      std::cout << "  [QuO " << bed.engine.now().seconds()
                << "s] clean + full reservation -> full-30fps\n";
    }
  };
  contract.on_enter("clean", restore_full_rate);
  // A reservation change while already "clean" does not transition the
  // region, so re-apply the level whenever the reservation knob moves.
  reserved_kbps.subscribe([&] {
    if (contract.current_region() == "clean") restore_full_rate();
  });
  contract.eval();

  // Receiver-side delivery reports every 500 ms.
  std::uint64_t last_rx = 0;
  std::uint64_t last_tx = 0;
  sim::PeriodicTimer reporter(bed.engine, milliseconds(500), [&] {
    const auto rx = stats.received_count();
    const auto tx = stats.transmitted_count();
    if (tx > last_tx) {
      // Chain the measurement (and any contract transition it triggers) to
      // the most recently dispatched frame — the request whose delivery
      // tipped the ratio — so the causal trace runs client send -> per-hop
      // network -> server dispatch -> QuO reaction.
      obs::TraceRecorder* tr = bed.engine.tracer();
      if (tr != nullptr) tr->set_current(bed.receiver_orb.last_dispatch_trace());
      ratio.set(static_cast<double>(rx - last_rx) / static_cast<double>(tx - last_tx));
      if (tr != nullptr) tr->set_current(0);
    }
    last_rx = rx;
    last_tx = tx;
  });

  // Initial partial reservation.
  core::QoSSession session(bed.sender_orb, binding.stub(), &bed.qos);
  core::EndToEndQosPolicy policy;
  policy.flow = core::kFlowVideo;
  policy.network_reservation = net::FlowSpec{730e3, 40'000};
  session.apply(policy, [&](Status<std::string> s) {
    std::cout << "  [RSVP " << bed.engine.now().seconds()
              << "s] partial reservation (730 kbps wire-rate): "
              << (s.ok() ? "granted" : s.error()) << "\n";
  });

  // t=40s: the application asks for a full-rate reservation (modify).
  bed.engine.at(TimePoint{seconds(40).ns()}, [&] {
    policy.network_reservation = net::FlowSpec{1.3e6, 40'000};
    session.apply(policy, [&](Status<std::string> s) {
      std::cout << "  [RSVP " << bed.engine.now().seconds()
                << "s] upgrade to full reservation: " << (s.ok() ? "granted" : s.error())
                << "\n";
      if (s.ok()) reserved_kbps.set(1300.0);
    });
  });

  std::cout << "adaptive stream: video 0-60s, 43.8 Mbps load from 20s on\n";
  source.run_between(TimePoint{seconds(1).ns()}, TimePoint{seconds(61).ns()});
  reporter.start();
  bed.load_traffic->run_between(TimePoint{seconds(20).ns()}, TimePoint{seconds(61).ns()});
  bed.engine.run_until(TimePoint{seconds(63).ns()});
  reporter.stop();

  obs::TrialObs trial;
  observer.finish(trial);

  const auto lat = stats.latency_series().stats();
  std::cout << "\nresults:\n"
            << "  frames sourced/transmitted/received : " << stats.source_count() << " / "
            << stats.transmitted_count() << " / " << stats.received_count() << "\n"
            << "  decodable                           : " << stats.decodable_count() << "\n"
            << "  latency mean/max                    : " << lat.mean() << " / "
            << lat.max() << " ms\n"
            << "  contract transitions                : " << contract.transition_count()
            << "\n"
            << "  receiver jitter (RFC 3550)          : "
            << monitor.jitter_ms(core::kFlowVideo) << " ms\n";

  if (observer.wants(core::kMetricsSidecar)) {
    obs::MetricsRegistry reg;
    bed.sender_orb.export_metrics(reg, "orb.sender");
    bed.receiver_orb.export_metrics(reg, "orb.receiver");
    bed.network.export_metrics(reg, "net");
    bed.sender_cpu.export_metrics(reg, "cpu.sender");
    bed.receiver_cpu.export_metrics(reg, "cpu.receiver");
    monitor.export_metrics(reg, "recv");
    if (hub != nullptr) hub->export_metrics(reg, "telemetry");
    reg.counter("stream.frames_sourced").set(stats.source_count());
    reg.counter("stream.frames_transmitted").set(stats.transmitted_count());
    reg.counter("stream.frames_received").set(stats.received_count());
    reg.counter("stream.frames_decodable").set(stats.decodable_count());
    reg.counter("quo.contract_transitions").set(contract.transition_count());
    reg.stats("stream.latency_ms").merge(lat);
    trial.metrics = reg.snapshot();
  }
  core::write_sidecars(opts, {{"adaptive_streaming", trial}});
  return 0;
}
