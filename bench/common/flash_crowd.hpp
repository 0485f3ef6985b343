// Flash-crowd scenario: the adaptation-loop showcase shared by the
// bench/flash_crowd driver and the control-plane tests.
//
// Two reserved flows cross the ReservationTestbed's IntServ bottleneck
// while the 43.8 Mbps load source keeps best-effort service saturated, so
// any traffic outside a flow's reservation is effectively lost. Flow A
// starts inside its reservation; at 6 s its offered load steps up
// (the flash crowd) far past the reserved rate. Under a static policy the
// excess rides best effort and drowns — a sustained drop-rate SLO breach.
// With the FeedbackScheduler controlling the bottleneck's per-flow HTB
// rates, flow A's measured drop deficit pulls reservation share away from
// the comfortable flow B within a few epochs and the SLO recovers while
// the crowd is still arriving.
#pragma once

#include <cstdint>

#include "obs/telemetry.hpp"

namespace aqm::bench {

/// Seed of the 43.8 Mbps load pulse, and so of the trial.
inline constexpr std::uint64_t kFlashCrowdLoadSeed = 43;

/// The offered loads, reservations, SLO and controller tuning are fixed
/// (flash_crowd.cpp).
struct FlashCrowdConfig {
  /// false: reservations stay at their admission-time rates (static
  /// policy). true: a FeedbackScheduler re-divides the bottleneck pool.
  bool feedback = false;
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
  /// Post-step delivery ratio for flow A (received/sent after the step).
  double a_post_step_delivery = 0.0;
  /// Controller accounting (zeros in static mode).
  std::uint64_t epochs_run = 0;
  std::uint64_t restamps_applied = 0;
  obs::HealthReport health;
};

FlashCrowdResult run_flash_crowd(const FlashCrowdConfig& cfg);

}  // namespace aqm::bench
