#include "common/reservation_scenario.hpp"

#include <memory>

#include "avstreams/rate_adaptation.hpp"
#include "avstreams/stream.hpp"
#include "common/log.hpp"
#include "common/policy_builder.hpp"
#include "core/qos_session.hpp"
#include "core/testbed.hpp"
#include "media/frame_filter.hpp"
#include "media/video_source.hpp"
#include "quo/status_channel.hpp"

namespace aqm::bench {
namespace {

/// The paper's partial reservation is "670 Kbps" of MPEG payload. Our
/// token buckets police wire bytes (payload + GIOP + per-packet
/// overhead), so we reserve the wire-rate equivalent: the 10 fps I+P
/// stream is ~654 kbps of payload ~= 730 kbps on the wire.
constexpr double kPartialRateBps = 730e3;
constexpr double kFullRateBps = 1.35e6;  // wire rate of the full ~1.2 Mbps stream

constexpr Duration kTotal = seconds(300);       // paper: 300 s of video
constexpr Duration kLoadStart = seconds(60);    // paper: load from t=60 s
constexpr Duration kLoadDuration = seconds(60);  // of the testbed's 43.8 Mbps pulse

constexpr double kFps = 30.0;
constexpr Duration kSinkDecodeCost = microseconds(500);

}  // namespace

ReservationScenarioResult run_reservation_scenario(const ReservationScenarioConfig& cfg,
                                                   const core::TrialSpec& spec) {
  core::ReservationTestbedParams params;
  params.load_seed = spec.seed;
  core::ReservationTestbed bed(params);

  const media::GopStructure gop = media::GopStructure::mpeg1_paper_profile();
  const double ip_rate = gop.rate_bps_filtered(kFps, true, true, false);

  ReservationScenarioResult result;
  media::VideoSinkStats stats(bed.engine, gop);

  // --- receiver side: sink endpoint ---------------------------------------------
  orb::Poa& video_poa = bed.receiver_orb.create_poa("video");
  av::VideoSinkEndpoint sink(video_poa, "display", kSinkDecodeCost,
                             [&](const media::VideoFrame& f) { stats.on_received(f); });

  // --- sender side: source -> QuO frame filter -> stream binding -----------------
  av::StreamBinding binding(bed.sender_orb, sink.ref(), core::kFlowVideo);
  media::FrameFilter filter(media::FilterLevel::Full);

  double reserved_rate = 0.0;
  if (cfg.reservation == ReservationLevel::Partial) reserved_rate = kPartialRateBps;
  if (cfg.reservation == ReservationLevel::Full) reserved_rate = kFullRateBps;

  std::unique_ptr<av::RateAdaptationQosket> qosket;
  if (cfg.frame_filtering) {
    av::RateAdaptationConfig qcfg;
    qcfg.reserved_rate_bps = reserved_rate;
    qcfg.ip_stream_rate_bps = ip_rate;
    qosket = std::make_unique<av::RateAdaptationQosket>(bed.engine, filter, qcfg);
  }

  media::VideoSource source(bed.engine, gop, kFps, [&](const media::VideoFrame& f) {
    ++result.frames_sourced;
    stats.on_source(f);
    if (cfg.frame_filtering && !filter.filter(f)) return;
    stats.on_transmitted(f);
    binding.push(f);
  });

  // --- QuO status collection (receiver reports upstream) -------------------------
  // The receiver's reporter pushes its cumulative delivery count to a
  // collector on the sender; the sender derives the per-window delivery
  // ratio against its own transmit count and feeds the qosket.
  orb::Poa& ctl_poa = bed.sender_orb.create_poa("ctl");
  quo::StatusCollector collector(ctl_poa, "video-status");
  quo::ValueSysCond& rx_total = collector.condition("frames_received");
  quo::StatusReporter reporter(bed.receiver_orb, collector.ref(), milliseconds(500));
  reporter.probe("frames_received",
                 [&] { return static_cast<double>(sink.frames_received()); });

  std::uint64_t last_rx = 0;
  std::uint64_t last_tx = 0;
  rx_total.subscribe([&] {
    const auto rx = static_cast<std::uint64_t>(rx_total.value());
    const std::uint64_t tx = stats.transmitted_count();
    const std::uint64_t dtx = tx - last_tx;
    const std::uint64_t drx = rx - last_rx;
    last_tx = tx;
    last_rx = rx;
    if (qosket && dtx > 0) {
      qosket->report(static_cast<double>(drx) / static_cast<double>(dtx));
    }
  });

  // --- reservations ------------------------------------------------------------
  // The RSVP reservation is requested declaratively: an EndToEndQosPolicy
  // whose network part the QoSSession signals through the network QoS
  // manager's sender-side agent for the stream binding's flow.
  core::QoSSession session(bed.sender_orb, binding.stub(), &bed.qos);
  if (cfg.reservation != ReservationLevel::None) {
    session.apply(PolicyBuilder{}.network(reserved_rate), [](Status<std::string> s) {
      if (!s.ok()) {
        AQM_WARN() << "reservation failed: " << s.error();
      }
    });
  }

  // --- schedule the run ----------------------------------------------------------
  const TimePoint video_start{seconds(1).ns()};
  const TimePoint video_end = video_start + kTotal;
  source.run_between(video_start, video_end);
  reporter.start();
  const TimePoint load_start = video_start + kLoadStart;
  const TimePoint load_end = load_start + kLoadDuration;
  bed.load_traffic->run_between(load_start, load_end);

  bed.engine.run_until(video_end + seconds(5));
  reporter.stop();

  // --- harvest -------------------------------------------------------------------
  result.frames_transmitted = stats.transmitted_count();
  result.frames_received = stats.received_count();
  result.frames_decodable = stats.decodable_count();
  result.i_frames_transmitted = stats.transmitted_of(media::FrameType::I);
  result.i_frames_received = stats.received_of(media::FrameType::I);
  result.sent_under_load = stats.transmitted_between(load_start, load_end);
  result.received_under_load = stats.received_captured_between(load_start, load_end);
  result.latency_under_load_ms = stats.latency_between(load_start, load_end + seconds(1));
  result.latency_overall_ms = stats.latency_series().stats();
  result.tx_per_second = stats.transmit_series().bucketize(seconds(1), video_end);
  result.rx_per_second = stats.receive_series().bucketize(seconds(1), video_end);
  if (qosket) result.contract_history = qosket->history();
  return result;
}

}  // namespace aqm::bench
