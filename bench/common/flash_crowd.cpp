#include "common/flash_crowd.hpp"

#include <cmath>
#include <memory>
#include <vector>

#include "common/log.hpp"
#include "common/policy_builder.hpp"
#include "core/feedback_scheduler.hpp"
#include "core/qos_session.hpp"
#include "core/testbed.hpp"
#include "net/queue.hpp"
#include "orb/orb.hpp"
#include "orb/servant.hpp"
#include "sim/engine.hpp"

namespace aqm::bench {
namespace {

constexpr Duration kDuration = seconds(20);
constexpr Duration kStepAt = seconds(6);     // flash-crowd arrival
constexpr std::size_t kMessageBytes = 1000;  // oneway payload per message

// Offered load (bps of payload).
constexpr double kABaseRateBps = 1.5e6;   // flow A before the step
constexpr double kACrowdRateBps = 4.5e6;  // flow A after the step
constexpr double kBRateBps = 1.5e6;       // flow B, steady

// Admission-time reservations (the static policy).
constexpr double kAReserveBps = 2e6;
constexpr double kBReserveBps = 2e6;
constexpr std::uint32_t kBucketBytes = 40'000;

/// Drop-rate SLO evaluated on the telemetry hub's sliding window.
constexpr double kMaxDropRate = 0.05;

/// Controller tuning (feedback mode). The pool is what the 10 Mbps
/// bottleneck can actually promise next to the best-effort load.
constexpr core::FeedbackConfig kController{
    .epoch = milliseconds(500),
    .net_pool_bps = 8e6,
    .min_share = 0.25,
    .smoothing = 0.5,
    .hysteresis = 0.05,
    .miss_weight = 0.0,
    .drop_weight = 4.0,
    .latency_weight = 0.0,
};

Duration message_interval(double rate_bps) {
  const double mps = rate_bps / (8.0 * static_cast<double>(kMessageBytes));
  return Duration{static_cast<std::int64_t>(std::llround(1e9 / mps))};
}

}  // namespace

FlashCrowdResult run_flash_crowd(const FlashCrowdConfig& cfg) {
  core::ReservationTestbedParams params;
  params.load_seed = kFlashCrowdLoadSeed;
  core::ReservationTestbed bed(params);

  obs::TelemetryHub hub;
  bed.engine.set_telemetry(&hub);
  bed.engine.set_tracer(&hub.flight());

  FlashCrowdResult result;
  const TimePoint step_time = TimePoint::zero() + kStepAt;
  std::uint64_t a_sent_post = 0;
  std::uint64_t a_received_post = 0;

  // One counting sink per flow on the receiver host.
  auto make_sink = [&](const char* poa_name, std::uint64_t& count,
                       std::uint64_t* post_count) {
    orb::Poa& poa = bed.receiver_orb.create_poa(poa_name);
    auto servant = std::make_shared<orb::FunctionServant>(
        microseconds(5), [&count, post_count, &bed, step_time](orb::ServerRequest&) {
          ++count;
          if (post_count != nullptr && bed.engine.now() >= step_time) ++*post_count;
        });
    return poa.activate_object("sink", std::move(servant));
  };
  const orb::ObjectRef sink_a = make_sink("recv-a", result.a_received, &a_received_post);
  const orb::ObjectRef sink_b = make_sink("recv-b", result.b_received, nullptr);

  // Admission-time policy per flow: classification, the static RSVP
  // reservation, and the drop-rate SLO the run is judged by.
  obs::SloSpec slo;
  slo.max_drop_rate = kMaxDropRate;
  orb::ObjectStub stub_a(bed.sender_orb, sink_a);
  core::QoSSession session_a(bed.sender_orb, stub_a, &bed.qos);
  session_a.apply(PolicyBuilder::sender(core::kFlowSender1)
                      .network(kAReserveBps, kBucketBytes)
                      .slo(slo));
  orb::ObjectStub stub_b(bed.sender_orb, sink_b);
  core::QoSSession session_b(bed.sender_orb, stub_b, &bed.qos);
  session_b.apply(PolicyBuilder::sender(core::kFlowSender2)
                      .network(kBReserveBps, kBucketBytes)
                      .slo(slo));
  // Let the RSVP Path/Resv exchanges settle before traffic starts.
  bed.engine.run_until(TimePoint::zero() + milliseconds(500));

  // The adaptation loop (feedback mode): both flows' HTB rates at the
  // bottleneck are under proportional-to-deficit control.
  net::IntServQueue& bottleneck = *static_cast<net::IntServQueue*>(
      &bed.network.link_between(bed.switch_node, bed.receiver_node)->queue());
  std::unique_ptr<core::FeedbackScheduler> controller;
  if (cfg.feedback) {
    controller = std::make_unique<core::FeedbackScheduler>(bed.engine, hub, kController);
    controller->control_rate(core::kFlowSender1, bottleneck, kBucketBytes);
    controller->control_rate(core::kFlowSender2, bottleneck, kBucketBytes);
    controller->start();
  }

  const Duration base_interval = message_interval(kABaseRateBps);
  const Duration crowd_interval = message_interval(kACrowdRateBps);
  sim::PeriodicTimer task_a(bed.engine, base_interval, [&] {
    ++result.a_sent;
    if (bed.engine.now() >= step_time) ++a_sent_post;
    stub_a.oneway("frame", std::vector<std::uint8_t>(kMessageBytes));
  });
  sim::PeriodicTimer task_b(bed.engine, message_interval(kBRateBps), [&] {
    ++result.b_sent;
    stub_b.oneway("frame", std::vector<std::uint8_t>(kMessageBytes));
  });

  task_a.start();
  task_b.start_after(milliseconds(7));  // decollide the two send grids
  bed.load_traffic->start();

  // The flash crowd: flow A's arrival rate steps up at kStepAt.
  bed.engine.at(step_time, [&] {
    task_a.stop();
    task_a.set_period(crowd_interval);
    task_a.start();
  });

  bed.engine.run_until(TimePoint::zero() + kDuration);
  // Judge the SLO at end of traffic, before the drain: once arrivals stop,
  // every window goes clean and even the collapsed static run would log a
  // vacuous "recovery".
  hub.poll(bed.engine.now());
  result.a_breached_at_end = hub.breached(core::kFlowSender1);
  {
    const auto rep = hub.report();
    const auto it = rep.flows.find(core::kFlowSender1);
    if (it != rep.flows.end()) {
      result.a_breaches = it->second.breaches;
      result.a_recoveries = it->second.recoveries;
    }
  }
  task_a.stop();
  task_b.stop();
  bed.load_traffic->stop();
  if (controller) controller->stop();
  // Drain in-flight messages.
  bed.engine.run_until(TimePoint::zero() + kDuration + seconds(2));

  hub.finalize(bed.engine.now());
  result.health = hub.report();
  const auto it = result.health.flows.find(core::kFlowSender1);
  if (it != result.health.flows.end()) {
    result.a_breached_ns = it->second.breached_ns;
  }
  result.a_post_step_delivery =
      a_sent_post == 0 ? 0.0
                       : static_cast<double>(a_received_post) /
                             static_cast<double>(a_sent_post);
  if (controller) {
    result.epochs_run = controller->epochs_run();
    result.restamps_applied = controller->restamps_applied();
  }
  bed.engine.set_telemetry(nullptr);
  bed.engine.set_tracer(nullptr);
  return result;
}

}  // namespace aqm::bench
