// One trial's observability bundle and the four sidecar documents written
// from a run's bundles. A trial fills only the parts whose sidecar was
// requested; core::Experiment labels each bundle with its trial name and
// writes every requested file (DESIGN.md §7).
//
// Every writer takes the bundles in trial-index order and folds them in
// that order, so each document is byte-identical for any worker count.
#pragma once

#include <iosfwd>
#include <memory>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace aqm::obs {

/// What a trial hands back for the sidecars; each part stays empty (the
/// trace null) unless its sidecar was requested.
struct TrialObs {
  MetricsSnapshot metrics;                // --metrics
  HealthReport health;                    // --slo
  std::vector<FlightDump> flight_dumps;   // --flight
  std::shared_ptr<TraceRecorder> trace;   // --trace
};

/// A trial's bundle labeled with the trial name.
struct NamedTrialObs {
  std::string_view name;
  const TrialObs& obs;
};

/// Chrome trace-event JSON of the first trial that recorded a trace (an
/// empty trace when none did).
void write_trace_sidecar(std::ostream& os, const std::vector<NamedTrialObs>& trials);
/// {"trials":[{"name":...,"metrics":{...}},...],"merged":{...}}; the merge
/// follows MetricsSnapshot::merge.
void write_metrics_sidecar(std::ostream& os, const std::vector<NamedTrialObs>& trials);
/// {"trials":[{"name":...,"health":{"events":[...],"flows":{...}}},...],
///  "merged":{"events":N,"flows":{...}}}. Events stay in their trials
/// (each lives on its own simulated timeline); the merge counts them and
/// sums the per-flow summaries.
void write_health_sidecar(std::ostream& os, const std::vector<NamedTrialObs>& trials);
/// {"dumps":[{...},...]}: one entry per breach dump across all trials.
void write_flight_sidecar(std::ostream& os, const std::vector<NamedTrialObs>& trials);

}  // namespace aqm::obs
