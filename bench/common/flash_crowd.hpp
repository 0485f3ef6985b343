// Flash-crowd scenario: the adaptation-loop showcase shared by the
// bench/flash_crowd driver and the control-plane tests.
//
// Two reserved flows cross the ReservationTestbed's IntServ bottleneck
// while the 43.8 Mbps load source keeps best-effort service saturated, so
// any traffic outside a flow's reservation is effectively lost. Flow A
// starts inside its reservation; at `step_at` its offered load steps up
// (the flash crowd) far past the reserved rate. Under a static policy the
// excess rides best effort and drowns — a sustained drop-rate SLO breach.
// With the FeedbackScheduler controlling the bottleneck's per-flow HTB
// rates, flow A's measured drop deficit pulls reservation share away from
// the comfortable flow B within a few epochs and the SLO recovers while
// the crowd is still arriving.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "core/feedback_scheduler.hpp"
#include "obs/telemetry.hpp"

namespace aqm::bench {

struct FlashCrowdConfig {
  /// false: reservations stay at their admission-time rates (static
  /// policy). true: a FeedbackScheduler re-divides the bottleneck pool.
  bool feedback = false;

  Duration duration = seconds(20);
  Duration step_at = seconds(6);     // flash-crowd arrival
  std::size_t message_bytes = 1000;  // oneway payload per message

  // Offered load (bps of payload).
  double a_base_rate_bps = 1.5e6;   // flow A before the step
  double a_crowd_rate_bps = 4.5e6;  // flow A after the step
  double b_rate_bps = 1.5e6;        // flow B, steady

  // Admission-time reservations (the static policy).
  double a_reserve_bps = 2e6;
  double b_reserve_bps = 2e6;
  std::uint32_t bucket_bytes = 40'000;

  /// Drop-rate SLO evaluated on the telemetry hub's sliding window.
  double max_drop_rate = 0.05;

  /// Controller tuning (feedback mode). The pool is what the 10 Mbps
  /// bottleneck can actually promise next to the best-effort load.
  core::FeedbackConfig controller{
      .epoch = milliseconds(500),
      .net_pool_bps = 8e6,
      .min_share = 0.25,
      .smoothing = 0.5,
      .hysteresis = 0.05,
      .miss_weight = 0.0,
      .drop_weight = 4.0,
      .latency_weight = 0.0,
  };

  std::uint64_t load_seed = 43;
};

struct FlashCrowdResult {
  std::uint64_t a_sent = 0;
  std::uint64_t a_received = 0;
  std::uint64_t b_sent = 0;
  std::uint64_t b_received = 0;
  /// Flow A SLO transitions over the run (from the health stream).
  std::uint64_t a_breaches = 0;
  std::uint64_t a_recoveries = 0;
  bool a_breached_at_end = false;
  std::int64_t a_breached_ns = 0;  // total time flow A spent breached
  /// Post-step delivery ratio for flow A (received/sent after step_at).
  double a_post_step_delivery = 0.0;
  /// Controller accounting (zeros in static mode).
  std::uint64_t epochs_run = 0;
  std::uint64_t restamps_applied = 0;
  obs::HealthReport health;
};

FlashCrowdResult run_flash_crowd(const FlashCrowdConfig& cfg);

}  // namespace aqm::bench
