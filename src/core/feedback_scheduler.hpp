// Feedback-driven adaptation loop: the closed-loop half of the runtime
// control plane. Each epoch the scheduler reads every controlled flow's
// measured window stats from the TelemetryHub and re-divides the shared
// HTB link-rate pool in proportion to each flow's smoothed *deficit*
// (deadline-miss rate, drop rate, and p99-latency overshoot, weighted).
// Flows that are meeting their targets drift back toward the equal share;
// flows falling behind are grown at the expense of the comfortable ones.
// Re-division lands through the same idempotent re-stamp primitive the
// override channel uses (IntServQueue::update_reservation), so a
// controller epoch never tears a binding down. CPU reserves are sized by
// the override channel, not by this loop.
//
// Determinism contract (DESIGN.md §13): epochs fire at integer multiples
// of the epoch length on the engine clock, flows are visited in ascending
// flow-id order, and the control law is pure arithmetic over the hub's
// deterministic window aggregates — a controlled run is byte-identical
// for any --jobs.
#pragma once

#include <cstdint>
#include <map>

#include "common/time.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "obs/telemetry.hpp"
#include "sim/engine.hpp"

namespace aqm::core {

struct FeedbackConfig {
  /// Control period; epoch k evaluates at engine time k * epoch.
  Duration epoch = milliseconds(500);
  /// Total link rate (bps) divided among rate-controlled flows.
  double net_pool_bps = 10e6;
  /// Minimum share weight every flow keeps even with zero deficit, as a
  /// fraction of the equal share. Keeps starved-but-healthy flows from
  /// collapsing to nothing and bounds how hard one flow can squeeze the
  /// rest (share_i = (min_share + deficit_i) / sum_j(min_share + deficit_j)).
  double min_share = 0.25;
  /// EWMA weight for the per-epoch deficit (1.0 = no smoothing).
  double smoothing = 0.5;
  /// Relative change below which a re-stamp is skipped — the actuation
  /// dead zone that keeps the controller from thrashing the kernel and
  /// queues over measurement noise.
  double hysteresis = 0.05;
  /// Deficit weights.
  double miss_weight = 1.0;
  double drop_weight = 1.0;
  /// Weighs (p99 / 50 ms - 1) when the p99 latency is above the 50 ms
  /// target (feedback_scheduler.cpp).
  double latency_weight = 0.5;
};

/// The per-epoch controller. One instance per controlled link pool;
/// registrations borrow the queue and hub, which must outlive the
/// scheduler.
class FeedbackScheduler {
 public:
  FeedbackScheduler(sim::Engine& engine, obs::TelemetryHub& hub,
                    FeedbackConfig cfg = {});
  FeedbackScheduler(const FeedbackScheduler&) = delete;
  FeedbackScheduler& operator=(const FeedbackScheduler&) = delete;
  ~FeedbackScheduler();

  [[nodiscard]] const FeedbackConfig& config() const { return cfg_; }

  /// Puts `flow`'s reservation on `queue` under rate control: each epoch
  /// the flow's share of net_pool_bps is re-stamped via
  /// update_reservation with the given bucket depth. Windowed telemetry
  /// for the flow (hub.watch) begins at start(), not here: a
  /// registered-but-disabled controller costs the delivery path nothing.
  void control_rate(net::FlowId flow, net::IntServQueue& queue,
                    std::uint32_t bucket_bytes);
  [[nodiscard]] bool controls(net::FlowId flow) const {
    return flows_.count(flow) > 0;
  }

  /// Starts the epoch timer: the first epoch fires at the next integer
  /// multiple of cfg.epoch strictly after engine.now(). Idempotent.
  void start();
  void stop();

  /// Runs one control epoch at time `now` (normally called by the timer;
  /// public so tests and benches can step the controller directly).
  /// Allocation-free in steady state.
  void run_epoch(TimePoint now);

  [[nodiscard]] std::uint64_t epochs_run() const { return epochs_run_; }
  [[nodiscard]] std::uint64_t restamps_applied() const { return restamps_applied_; }
  [[nodiscard]] std::uint64_t restamps_rejected() const { return restamps_rejected_; }
  /// The flow's current smoothed deficit (0 when uncontrolled).
  [[nodiscard]] double deficit(net::FlowId flow) const;

 private:
  struct Controlled {
    net::IntServQueue* queue = nullptr;
    std::uint32_t bucket_bytes = 0;
    double applied_rate_bps = 0.0;  // last re-stamped rate
    // Controller state.
    double deficit = 0.0;  // EWMA-smoothed
  };

  [[nodiscard]] double measure_deficit(const obs::WindowStats& w) const;
  void tick(TimePoint now);  // run_epoch + reschedule

  sim::Engine& engine_;
  obs::TelemetryHub& hub_;
  FeedbackConfig cfg_;
  std::map<net::FlowId, Controlled> flows_;  // ascending id = visit order
  bool running_ = false;
  sim::EventId pending_{};
  std::uint64_t epochs_run_ = 0;
  std::uint64_t restamps_applied_ = 0;
  std::uint64_t restamps_rejected_ = 0;  // admission/unknown-flow failures
};

}  // namespace aqm::core
