// Ablation: early congestion signaling with the ECN bits.
//
// The paper notes the DiffServ byte carries "two bits of Explicit
// Congestion Notification" but never uses them. This experiment shows what
// they buy: with a RED router marking ECN-capable GIOP traffic, the QuO
// rate-adaptation qosket reacts to *marks* before any queue overflows, so
// the stream adapts with low latency and (nearly) no loss; with a plain
// drop-tail router the same qosket only reacts after the queue has filled
// and frames have died.
//
// One 30 fps MPEG stream over the 10 Mbps bottleneck; bursty cross traffic
// (average 9 Mbps) pushes the aggregate just past capacity.
//
// The three router/feedback cases are independent trials on the
// shard-parallel experiment runner (--jobs N); output is byte-identical
// for every worker count.
#include <iostream>
#include <memory>

#include "core/experiment.hpp"

#include "avstreams/rate_adaptation.hpp"
#include "avstreams/stream.hpp"
#include "common/table.hpp"
#include "media/video_sink.hpp"
#include "media/video_source.hpp"
#include "net/red_queue.hpp"
#include "net/traffic_gen.hpp"
#include "orb/orb.hpp"
#include "quo/status_channel.hpp"

namespace {

using namespace aqm;
using namespace aqm::bench;

enum class RouterKind { DropTail, RedEcn };
enum class Feedback { None, LossRatio, EcnMarks };

struct CaseResult {
  std::uint64_t transmitted = 0;
  std::uint64_t received = 0;
  RunningStats latency_ms;
  std::uint64_t ce_marks = 0;
  std::size_t adaptations = 0;
};

CaseResult run_case(RouterKind router, Feedback feedback, std::uint64_t seed) {
  sim::Engine engine;
  net::Network network(engine);
  const auto sender = network.add_node("sender");
  const auto hub = network.add_node("router");
  const auto receiver = network.add_node("receiver");
  const auto load_src = network.add_node("load");

  net::LinkConfig access;
  access.bandwidth_bps = 100e6;
  net::LinkConfig bottleneck;
  bottleneck.bandwidth_bps = 10e6;
  network.add_duplex_link(sender, hub, access);
  network.add_duplex_link(load_src, hub, access);
  std::unique_ptr<net::Queue> egress;
  if (router == RouterKind::RedEcn) {
    egress = std::make_unique<net::RedQueue>();
  } else {
    egress = std::make_unique<net::DropTailQueue>(1000);
  }
  network.add_link(hub, receiver, bottleneck, std::move(egress));
  network.add_link(receiver, hub, access);

  os::Cpu sender_cpu(engine, "sender-cpu");
  os::Cpu receiver_cpu(engine, "receiver-cpu");
  orb::TransportConfig transport;
  transport.ecn_capable = (router == RouterKind::RedEcn);
  orb::OrbEndpoint sender_orb(network, sender, sender_cpu, transport);
  orb::OrbEndpoint receiver_orb(network, receiver, receiver_cpu, transport);

  const media::GopStructure gop = media::GopStructure::mpeg1_paper_profile();
  const net::FlowId flow = 71;

  CaseResult result;
  media::VideoSinkStats stats(engine, gop);
  orb::Poa& video_poa = receiver_orb.create_poa("video");
  av::VideoSinkEndpoint sink(video_poa, "display", microseconds(400),
                             [&](const media::VideoFrame& f) { stats.on_received(f); });
  av::StreamBinding binding(sender_orb, sink.ref(), flow);

  media::FrameFilter filter;
  av::RateAdaptationConfig qcfg;
  qcfg.reserved_rate_bps = 700e3;  // adaptation target: the 10 fps stream
  qcfg.ip_stream_rate_bps = 650e3;
  av::RateAdaptationQosket qosket(engine, filter, qcfg);

  media::VideoSource source(engine, gop, 30.0, [&](const media::VideoFrame& f) {
    if (feedback != Feedback::None && !filter.filter(f)) return;
    stats.on_transmitted(f);
    binding.push(f);
  });

  // Receiver reports both delivery count and cumulative CE marks.
  orb::Poa& ctl_poa = sender_orb.create_poa("ctl");
  quo::StatusCollector collector(ctl_poa, "status");
  quo::ValueSysCond& rx_total = collector.condition("frames_received");
  quo::ValueSysCond& marks_total = collector.condition("ce_marks");
  quo::StatusReporter reporter(receiver_orb, collector.ref(), milliseconds(500));
  reporter.probe("frames_received",
                 [&] { return static_cast<double>(sink.frames_received()); });
  reporter.probe("ce_marks", [&] {
    return static_cast<double>(receiver_orb.transport().ce_marks(flow));
  });

  std::uint64_t last_rx = 0;
  std::uint64_t last_tx = 0;
  double last_marks = 0.0;
  rx_total.subscribe([&] {
    const auto rx = static_cast<std::uint64_t>(rx_total.value());
    const std::uint64_t tx = stats.transmitted_count();
    const std::uint64_t dtx = tx - last_tx;
    const std::uint64_t drx = rx - last_rx;
    const double dmarks = marks_total.value() - last_marks;
    last_tx = tx;
    last_rx = rx;
    last_marks = marks_total.value();
    if (dtx == 0) return;
    if (feedback == Feedback::LossRatio) {
      qosket.report(static_cast<double>(drx) / static_cast<double>(dtx));
    } else if (feedback == Feedback::EcnMarks) {
      // A congestion-experienced mark is a "please slow down" even though
      // the frame arrived: treat marked deliveries as pressure.
      const double clean = std::max(0.0, static_cast<double>(drx) - dmarks);
      qosket.report(clean / static_cast<double>(dtx));
    }
  });

  source.run_between(TimePoint{seconds(1).ns()}, TimePoint{seconds(61).ns()});
  reporter.start();

  net::TrafficGenerator::Config load;
  load.src = load_src;
  load.dst = receiver;
  load.rate_bps = 18e6;  // 50% duty -> ~9 Mbps average
  load.on_mean = seconds(2);
  load.off_mean = seconds(2);
  load.flow = 72;
  load.poisson = true;
  load.seed = seed;
  net::TrafficGenerator load_gen(network, load);
  load_gen.run_between(TimePoint{seconds(10).ns()}, TimePoint{seconds(50).ns()});

  engine.run_until(TimePoint{seconds(63).ns()});
  reporter.stop();

  result.transmitted = stats.transmitted_count();
  result.received = stats.received_count();
  result.latency_ms = stats.latency_series().stats();
  result.ce_marks = receiver_orb.transport().ce_marks(flow);
  result.adaptations = qosket.history().size();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = core::parse_experiment_options(argc, argv, core::kNoSidecars);

  banner("Ablation: RED/ECN early adaptation vs loss-triggered adaptation");

  struct Case {
    const char* name;
    RouterKind router;
    Feedback feedback;
  };
  const Case cases[] = {
      {"drop-tail, no adaptation", RouterKind::DropTail, Feedback::None},
      {"drop-tail, loss-triggered QuO", RouterKind::DropTail, Feedback::LossRatio},
      {"RED+ECN, mark-triggered QuO", RouterKind::RedEcn, Feedback::EcnMarks},
  };

  core::Experiment<CaseResult> exp;
  for (const auto& c : cases) {
    exp.add(c.name, 21, [router = c.router, feedback = c.feedback](
                            const core::TrialSpec& spec) {
      return run_case(router, feedback, spec.seed);
    });
  }
  const auto results = exp.run(opts);

  TextTable table({"configuration", "delivered/sent", "loss%", "mean lat(ms)",
                   "max lat(ms)", "CE marks", "adaptations"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    const double loss =
        r.transmitted == 0
            ? 0.0
            : 100.0 * static_cast<double>(r.transmitted - std::min(r.transmitted, r.received)) /
                  static_cast<double>(r.transmitted);
    table.row({cases[i].name,
               std::to_string(r.received) + "/" + std::to_string(r.transmitted),
               fmt(loss, 1), fmt(r.latency_ms.mean(), 1),
               fmt(r.latency_ms.empty() ? 0.0 : r.latency_ms.max(), 1),
               std::to_string(r.ce_marks), std::to_string(r.adaptations)});
  }
  std::cout << "\n";
  table.print();
  std::cout << "\nReading: RED keeps the bottleneck queue short and the ECN marks\n"
            << "let the qosket shed rate before frames die — lower latency and\n"
            << "loss than reacting to losses after the drop-tail queue overflows.\n";
  return 0;
}
