// Shared runner for the Figure 4/5/6 experiments: two video-sender tasks
// pushing GIOP messages through the contended router to two receiver
// servants in separate POAs, with optional thread priorities, DSCP marking,
// CPU load on the receiver host, and cross traffic.
#pragma once

#include <cstdint>
#include <string>

#include "common/policy_builder.hpp"
#include "common/stats.hpp"
#include "net/dscp.hpp"
#include "core/experiment.hpp"
#include "core/qos_policy.hpp"
#include "core/testbed.hpp"
#include "obs/sidecar.hpp"
#include "orb/types.hpp"

namespace aqm::bench {

/// Baseline per-sender policy: flow id for the classifier plus a low CORBA
/// priority; drivers override the fields their figure varies (usually by
/// rebuilding with PolicyBuilder::sender and chaining the varied knobs).
inline core::EndToEndQosPolicy default_sender_policy(net::FlowId flow) {
  return PolicyBuilder::sender(flow);
}

struct PriorityScenarioConfig {
  /// Declarative per-sender QoS: each binding's priority, priority->DSCP
  /// mapping, explicit DSCP, and flow id ride one EndToEndQosPolicy applied
  /// through a QoSSession, which writes them onto the sender's stub — the
  /// same path applications use, replacing the former per-driver scatter
  /// of stub/ORB mutations.
  core::EndToEndQosPolicy sender1_policy = default_sender_policy(core::kFlowSender1);
  core::EndToEndQosPolicy sender2_policy = default_sender_policy(core::kFlowSender2);
  /// Build the router with a DiffServ (strict-priority PHB) bottleneck
  /// queue instead of plain drop-tail. Implied by either policy's
  /// map_priority_to_dscp (the mapping needs a DiffServ PHB to matter).
  bool diffserv_router = false;
  /// Competing network traffic through the bottleneck (16 Mbps).
  bool cross_traffic = false;
  double cross_rate_bps = 16e6;
  std::size_t queue_pkts = 1000;  // bottleneck egress queue depth
  /// Competing CPU load on the receiver host (between the two mapped
  /// thread priorities; its shape is fixed in priority_scenario.cpp).
  bool cpu_load = false;

  Duration duration = seconds(60);
};

/// The trial seed every priority-scenario driver declares to
/// core::Experiment::add.
inline constexpr std::uint64_t kPriorityScenarioSeed = 11;

struct PriorityScenarioResult {
  TimeSeries s1_latency_ms;  // one point per delivered message
  TimeSeries s2_latency_ms;
  std::uint64_t s1_sent = 0;
  std::uint64_t s2_sent = 0;
  std::uint64_t s1_received = 0;
  std::uint64_t s2_received = 0;
  /// Receiver-side FlowMonitor accounting.
  double s1_jitter_ms = 0.0;
  double s2_jitter_ms = 0.0;
  std::uint64_t s1_dropped = 0;
  std::uint64_t s2_dropped = 0;
  /// The trial's sidecar bundle (core::TrialObserver).
  obs::TrialObs obs;

  [[nodiscard]] RunningStats s1_stats() const { return s1_latency_ms.stats(); }
  [[nodiscard]] RunningStats s2_stats() const { return s2_latency_ms.stats(); }
};

/// Builds a PriorityTestbed (DiffServ bottleneck iff requested or implied
/// by a priority->DSCP mapping policy) and runs the scenario to completion,
/// observed for the trial's sidecar set (spec.sidecars). All randomness
/// comes from spec.seed: the CPU load generator draws from it and the
/// cross traffic from a stream at a fixed offset to it. The sender
/// policies' SLO specs apply only when the set attaches a hub (--slo or
/// --flight).
PriorityScenarioResult run_priority_scenario(const PriorityScenarioConfig& cfg,
                                             const core::TrialSpec& spec);

/// Prints the per-second latency series of both senders side by side —
/// the textual equivalent of the paper's latency-vs-time figures.
void print_latency_series(const PriorityScenarioResult& result, Duration bucket,
                          TimePoint end);

/// Prints the summary block (count, mean/min/max latency, jitter, loss).
void print_summary(const std::string& title, const PriorityScenarioResult& result);

}  // namespace aqm::bench
