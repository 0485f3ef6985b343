// Scaled-down versions of the paper's experiments, asserting the headline
// *shapes* end to end (the full-scale runs live in bench/).
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "avstreams/stream.hpp"
#include "core/qos_session.hpp"
#include "core/testbed.hpp"
#include "media/video_sink.hpp"
#include "media/video_source.hpp"
#include "orb/rt/dscp_mapping.hpp"
#include "os/load_generator.hpp"

namespace aqm {
namespace {

/// Runs a 2-sender video scenario on the priority testbed for `duration`
/// with cross traffic; returns per-flow latency stats measured at the
/// receiving servants.
struct PriorityRunResult {
  RunningStats s1_latency_ms;
  RunningStats s2_latency_ms;
  std::uint64_t s1_received = 0;
  std::uint64_t s2_received = 0;
};

PriorityRunResult run_priority_scenario(core::PriorityTestbed& bed, bool banded_dscp,
                                        orb::CorbaPriority p1, orb::CorbaPriority p2,
                                        Duration duration, bool cross_traffic) {
  if (banded_dscp) {
    bed.sender_orb.dscp_mappings() = orb::rt::DscpMapping::banded();
  }
  orb::Poa& poa1 = bed.receiver_orb.create_poa("recv1");
  orb::Poa& poa2 = bed.receiver_orb.create_poa("recv2");

  PriorityRunResult result;
  auto make_sink = [&](orb::Poa& poa, RunningStats& stats, std::uint64_t& count) {
    auto servant = std::make_shared<orb::FunctionServant>(
        microseconds(300), [&stats, &count, &bed](orb::ServerRequest& req) {
          ++count;
          if (req.client_send_time) {
            stats.add((bed.engine.now() - *req.client_send_time).millis());
          }
        });
    return poa.activate_object("sink", std::move(servant));
  };
  const orb::ObjectRef sink1 = make_sink(poa1, result.s1_latency_ms, result.s1_received);
  const orb::ObjectRef sink2 = make_sink(poa2, result.s2_latency_ms, result.s2_received);

  orb::ObjectStub stub1(bed.sender_orb, sink1);
  stub1.set_flow(core::kFlowSender1);
  stub1.set_priority(p1);
  orb::ObjectStub stub2(bed.sender_orb, sink2);
  stub2.set_flow(core::kFlowSender2);
  stub2.set_priority(p2);

  // Two "video" tasks: 120 messages/s of 1200 B each (~1.15 Mbps).
  sim::PeriodicTimer task1(bed.engine, microseconds(8333), [&] {
    stub1.oneway("frame", std::vector<std::uint8_t>(1200));
  });
  sim::PeriodicTimer task2(bed.engine, microseconds(8333), [&] {
    stub2.oneway("frame", std::vector<std::uint8_t>(1200));
  });
  task1.start();
  task2.start();
  if (cross_traffic) bed.cross_traffic->start();
  bed.engine.run_until(TimePoint::zero() + duration);
  task1.stop();
  task2.stop();
  if (cross_traffic) bed.cross_traffic->stop();
  bed.engine.run_until(TimePoint::zero() + duration + seconds(2));
  return result;
}

TEST(IntegrationPriority, IdleNetworkIsFastAndFlat) {
  core::PriorityTestbed bed((core::PriorityTestbedParams{}));
  const auto r =
      run_priority_scenario(bed, false, 1000, 1000, seconds(5), /*cross=*/false);
  ASSERT_GT(r.s1_received, 500u);
  // ~1.5 ms flat latency, like the paper's Figure 4(a).
  EXPECT_LT(r.s1_latency_ms.mean(), 5.0);
  EXPECT_LT(r.s1_latency_ms.stddev(), 1.0);
}

TEST(IntegrationPriority, CrossTrafficWrecksBestEffort) {
  core::PriorityTestbed bed((core::PriorityTestbedParams{}));
  const auto r =
      run_priority_scenario(bed, false, 1000, 1000, seconds(8), /*cross=*/true);
  // Figure 4(b): wild latency and/or massive loss.
  const bool unstable = r.s1_latency_ms.max() > 100.0 ||
                        r.s1_received < 8 * 120 / 2;  // >50% loss
  EXPECT_TRUE(unstable) << "mean=" << r.s1_latency_ms.mean()
                        << " max=" << r.s1_latency_ms.max()
                        << " received=" << r.s1_received;
}

TEST(IntegrationPriority, DscpProtectsMarkedStreamsFromCrossTraffic) {
  core::PriorityTestbedParams params;
  params.diffserv_bottleneck = true;
  core::PriorityTestbed bed(params);
  // Figure 6: both senders DSCP-marked above cross traffic, sender 1 higher.
  const auto r =
      run_priority_scenario(bed, true, 30'000, 25'000, seconds(8), /*cross=*/true);
  ASSERT_GT(r.s1_received, 800u);
  ASSERT_GT(r.s2_received, 800u);
  // Both streams predictable despite 16 Mbps cross traffic.
  EXPECT_LT(r.s1_latency_ms.mean(), 10.0);
  EXPECT_LT(r.s2_latency_ms.mean(), 20.0);
  // Sender 1 (EF) at least as good as sender 2 (AF41).
  EXPECT_LE(r.s1_latency_ms.mean(), r.s2_latency_ms.mean());
}

TEST(IntegrationCpu, ThreadPriorityDecidesLatencyUnderCpuLoad) {
  // Figure 5(a): with CPU load on the receiver, the high-priority task has
  // visibly lower latency than the low-priority one.
  core::PriorityTestbed bed((core::PriorityTestbedParams{}));
  os::LoadGenerator::Config load_cfg;
  load_cfg.priority = 128;  // between the two mapped priorities
  load_cfg.burst_mean = milliseconds(15);
  load_cfg.interval_mean = milliseconds(25);
  os::LoadGenerator load(bed.engine, bed.receiver_cpu, load_cfg, /*seed=*/11);
  load.start();
  // CORBA 30000 -> native ~233 (above load); CORBA 1000 -> native ~7 (below).
  const auto r =
      run_priority_scenario(bed, false, 30'000, 1'000, seconds(8), /*cross=*/false);
  load.stop();
  ASSERT_GT(r.s1_received, 500u);
  ASSERT_GT(r.s2_received, 500u);
  EXPECT_LT(r.s1_latency_ms.mean(), r.s2_latency_ms.mean() / 2.0)
      << "high-prio " << r.s1_latency_ms.mean() << "ms vs low-prio "
      << r.s2_latency_ms.mean() << "ms";
}

TEST(IntegrationReservation, FullReservationSurvivesOverload) {
  core::ReservationTestbed bed((core::ReservationTestbedParams{}));
  media::VideoSinkStats stats(bed.engine, media::GopStructure::mpeg1_paper_profile());
  orb::Poa& poa = bed.receiver_orb.create_poa("video");
  av::VideoSinkEndpoint sink(poa, "display", microseconds(500),
                             [&](const media::VideoFrame& f) { stats.on_received(f); });
  av::StreamBinding binding(bed.sender_orb, sink.ref(), core::kFlowVideo);

  std::optional<bool> reserved;
  core::QoSSession session(bed.sender_orb, binding.stub(), &bed.qos);
  core::EndToEndQosPolicy policy;
  policy.network_reservation = net::FlowSpec{1.3e6, 40'000};
  session.apply(policy, [&](Status<std::string> s) { reserved = s.ok(); });

  media::VideoSource source(bed.engine, media::GopStructure::mpeg1_paper_profile(), 30.0,
                            [&](const media::VideoFrame& f) {
                              stats.on_source(f);
                              stats.on_transmitted(f);
                              binding.push(f);
                            });
  source.run_between(TimePoint{seconds(1).ns()}, TimePoint{seconds(11).ns()});
  bed.load_traffic->run_between(TimePoint{seconds(3).ns()}, TimePoint{seconds(9).ns()});
  bed.engine.run_until(TimePoint{seconds(13).ns()});

  ASSERT_TRUE(reserved && *reserved);
  // Under 43.8 Mbps of load, the fully reserved stream still delivers
  // essentially everything (paper: 100%).
  EXPECT_GT(stats.received_count(), stats.transmitted_count() * 95 / 100);
}

TEST(IntegrationReservation, NoAdaptationCollapsesUnderOverload) {
  core::ReservationTestbed bed((core::ReservationTestbedParams{}));
  media::VideoSinkStats stats(bed.engine, media::GopStructure::mpeg1_paper_profile());
  orb::Poa& poa = bed.receiver_orb.create_poa("video");
  av::VideoSinkEndpoint sink(poa, "display", microseconds(500),
                             [&](const media::VideoFrame& f) { stats.on_received(f); });
  av::StreamBinding binding(bed.sender_orb, sink.ref(), core::kFlowVideo);

  media::VideoSource source(bed.engine, media::GopStructure::mpeg1_paper_profile(), 30.0,
                            [&](const media::VideoFrame& f) {
                              stats.on_transmitted(f);
                              binding.push(f);
                            });
  source.run_between(TimePoint{seconds(1).ns()}, TimePoint{seconds(11).ns()});
  bed.load_traffic->run_between(TimePoint{seconds(3).ns()}, TimePoint{seconds(9).ns()});
  bed.engine.run_until(TimePoint{seconds(13).ns()});

  // Frames sent while the network was loaded mostly vanish (paper: 0.83%
  // delivered). Allow up to 20% to keep the test robust.
  const auto sent_under_load =
      stats.transmitted_between(TimePoint{seconds(3).ns()}, TimePoint{seconds(9).ns()});
  const auto received_under_load =
      stats.received_between(TimePoint{seconds(3).ns() + milliseconds(200).ns()},
                             TimePoint{seconds(9).ns()});
  ASSERT_GT(sent_under_load, 100u);
  EXPECT_LT(received_under_load, sent_under_load / 5);
}

TEST(IntegrationReservation, CpuReserveRestoresProcessingTime) {
  // Table 2 in miniature: one algorithm, with/without load and reserve.
  core::AtrTestbed bed((core::AtrTestbedParams{}));
  const Duration work = milliseconds(30);

  auto measure = [&](bool with_load, bool with_reserve) {
    RunningStats times;
    os::ReserveId reserve = os::kNoReserve;
    if (with_reserve) {
      const auto r =
          bed.server_cpu.create_reserve({milliseconds(45), milliseconds(50), true});
      EXPECT_TRUE(r.ok());
      reserve = r.value();
    }
    std::unique_ptr<os::LoadGenerator> load;
    if (with_load) {
      os::LoadGenerator::Config cfg;
      cfg.priority = 100;  // same priority as the processing job
      cfg.burst_mean = milliseconds(20);
      cfg.interval_mean = milliseconds(50);
      load = std::make_unique<os::LoadGenerator>(bed.engine, bed.server_cpu, cfg, /*seed=*/5);
      load->start();
    }
    const TimePoint deadline = bed.engine.now() + seconds(10);
    std::function<void()> next = [&] {
      if (bed.engine.now() >= deadline) return;
      const TimePoint begin = bed.engine.now();
      bed.server_cpu.submit_for(work, 100,
                                [&, begin] {
                                  times.add((bed.engine.now() - begin).millis());
                                  next();
                                },
                                reserve);
    };
    next();
    bed.engine.run_until(deadline + seconds(1));
    if (load) load->stop();
    if (reserve != os::kNoReserve) bed.server_cpu.destroy_reserve(reserve);
    return times;
  };

  const RunningStats baseline = measure(false, false);
  const RunningStats loaded = measure(true, false);
  const RunningStats reserved = measure(true, true);

  EXPECT_NEAR(baseline.mean(), 30.0, 1.0);
  // Load inflates latency noticeably (paper: +13..41%).
  EXPECT_GT(loaded.mean(), baseline.mean() * 1.1);
  // Reserve restores to near baseline.
  EXPECT_LT(reserved.mean(), baseline.mean() * 1.15);
  EXPECT_LT(reserved.stddev(), loaded.stddev());
}

}  // namespace
}  // namespace aqm
