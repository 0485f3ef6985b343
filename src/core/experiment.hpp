// Experiment: a declarative list of independent simulation trials executed
// through the shard-parallel runner.
//
// A driver describes each trial as (name, seed, factory-function); run()
// fans the trials out across worker threads and returns the results in
// add() order. Determinism contract: a trial function must construct every
// stateful object it uses (Engine, Network, testbed, generators) locally
// and take all randomness from spec.seed — then results are byte-identical
// for any --jobs value, because each result is computed by exactly one
// single-threaded simulation and written to a slot owned by its index.
//
// Drivers accept `--jobs N` (or `-jN`), plus the flags of the sidecars they
// declare, via parse_experiment_options(). A trial sees the requested
// sidecars in spec.sidecars, wires its engine with a TrialObserver and
// returns an obs::TrialObs in its result's `obs` member; run() then writes
// every requested sidecar file (DESIGN.md §7).
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/sidecar.hpp"
#include "sim/parallel_runner.hpp"

namespace aqm::sim {
class Engine;
}  // namespace aqm::sim

namespace aqm::core {

/// The observability sidecars a driver writes, as bits of a set. A driver
/// declares its set to parse_experiment_options, which accepts the flag of
/// each declared sidecar and rejects the rest, so no flag is parsed and
/// then ignored.
enum Sidecar : unsigned {
  kNoSidecars = 0,
  kTraceSidecar = 1u << 0,    // --trace FILE
  kMetricsSidecar = 1u << 1,  // --metrics FILE
  kSloSidecar = 1u << 2,      // --slo FILE
  kFlightSidecar = 1u << 3,   // --flight FILE
  kAllSidecars = kTraceSidecar | kMetricsSidecar | kSloSidecar | kFlightSidecar,
};

struct TrialSpec {
  std::string name;        // stable label, used by drivers when printing
  std::uint64_t seed = 0;  // sole randomness input of the trial
  std::size_t index = 0;   // position in the experiment (assigned by add())
  /// Sidecars requested on the command line (assigned by run()). Only
  /// trial 0 sees kTraceSidecar: a run writes one trace.
  unsigned sidecars = kNoSidecars;
};

struct ExperimentOptions {
  /// Worker threads; 0 = one per hardware thread, 1 = inline (no threads).
  unsigned jobs = 1;
  /// Print one '.' to stderr as each trial finishes (multi-trial runs only).
  bool progress = true;
  /// Non-empty: write the Chrome trace-event JSON (load in Perfetto /
  /// chrome://tracing) of the first trial here.
  std::string trace_path;
  /// Non-empty: write the per-trial + merged metrics sidecar here.
  std::string metrics_path;
  /// Non-empty: write the per-trial + merged SLO health-event sidecar here.
  std::string slo_path;
  /// Non-empty: write the flight-recorder breach dump sidecar here.
  std::string flight_path;

  /// The requested set: the Sidecar bit of every non-empty path.
  [[nodiscard]] unsigned sidecars() const;
};

/// Parses and strips `--jobs N`, `--jobs=N`, `-jN`, `-j N` and, for each
/// Sidecar bit set in `sidecars`, `--<name> FILE` / `--<name>=FILE` (trace,
/// metrics, slo, flight) from an argv-style array (argc is updated). Any
/// other argument, an undeclared sidecar flag included, prints a usage line
/// listing the accepted flags; that and an unparsable value exit with 2.
ExperimentOptions parse_experiment_options(int& argc, char** argv, unsigned sidecars);

/// Writes every sidecar whose path is set in `opts` from `trials` (in
/// trial-index order). A file that cannot be written prints
/// `failed to write <name> sidecar to PATH` and exits with 1.
void write_sidecars(const ExperimentOptions& opts, const std::vector<obs::NamedTrialObs>& trials);

/// Wires one trial's engine for its sidecar set, the single place that
/// decides what a set attaches:
///  * kTraceSidecar: a full TraceRecorder as the engine tracer;
///  * kSloSidecar or kFlightSidecar: a TelemetryHub. Its flight ring
///    doubles as the engine tracer unless the full recorder holds that
///    seat, in which case breach dumps are cut from the full recorder.
/// Construct it after the engine and before anything the trial wants
/// observed (SLO specs land on hub()).
class TrialObserver {
 public:
  TrialObserver(sim::Engine& engine, unsigned sidecars);
  TrialObserver(const TrialObserver&) = delete;
  TrialObserver& operator=(const TrialObserver&) = delete;

  [[nodiscard]] bool wants(Sidecar s) const { return (sidecars_ & s) != 0; }
  /// The attached hub; null unless the set asks for --slo or --flight.
  [[nodiscard]] obs::TelemetryHub* hub() const { return hub_.get(); }

  /// Ends the trial: finalizes the hub at the engine clock, detaches it
  /// (and the flight ring) from the engine, and fills `out` with the
  /// health report, flight dumps and trace. The hub stays readable, e.g.
  /// for export_metrics; the full recorder stays attached so it keeps
  /// what the trial's teardown records.
  void finish(obs::TrialObs& out);

 private:
  sim::Engine& engine_;
  unsigned sidecars_;
  std::shared_ptr<obs::TraceRecorder> trace_;
  std::unique_ptr<obs::TelemetryHub> hub_;
};

/// Decorrelates a per-trial seed from an experiment base seed and a trial
/// index (splitmix64 finalizer), so sweeps get independent streams without
/// hand-picking constants.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

namespace detail {
void report_trial_done(bool enabled);
}  // namespace detail

/// A trial result that carries its sidecar bundle in an `obs` member.
template <typename Result>
concept CarriesTrialObs = requires(const Result& r) {
  { r.obs } -> std::convertible_to<const obs::TrialObs&>;
};

template <typename Result>
class Experiment {
 public:
  using TrialFn = std::function<Result(const TrialSpec&)>;

  /// Registers a trial. Trials run in any order but results keep add() order.
  void add(std::string name, std::uint64_t seed, TrialFn fn) {
    TrialSpec spec;
    spec.name = std::move(name);
    spec.seed = seed;
    spec.index = trials_.size();
    trials_.push_back(Trial{std::move(spec), std::move(fn)});
  }

  [[nodiscard]] std::size_t size() const { return trials_.size(); }
  [[nodiscard]] const TrialSpec& spec(std::size_t i) const { return trials_[i].spec; }

  /// Runs every trial and returns the results in add() order. Each worker
  /// writes only the slot of the trial index it pulled, so the merge needs
  /// no locking and the output is independent of the worker count. When
  /// results carry an obs::TrialObs, every requested sidecar is written
  /// before run() returns.
  [[nodiscard]] std::vector<Result> run(const ExperimentOptions& opts = {}) const {
    std::vector<std::optional<Result>> slots(trials_.size());
    const sim::ParallelRunner runner(opts.jobs);
    const bool progress = opts.progress && trials_.size() > 1;
    const unsigned requested = opts.sidecars();
    runner.run(trials_.size(), [&](std::size_t i) {
      TrialSpec spec = trials_[i].spec;
      spec.sidecars = i == 0 ? requested : requested & ~kTraceSidecar;
      slots[i] = trials_[i].fn(spec);
      detail::report_trial_done(progress);
    });
    std::vector<Result> out;
    out.reserve(slots.size());
    for (auto& slot : slots) out.push_back(std::move(*slot));
    if constexpr (CarriesTrialObs<Result>) {
      std::vector<obs::NamedTrialObs> named;
      named.reserve(out.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        named.push_back({trials_[i].spec.name, out[i].obs});
      }
      write_sidecars(opts, named);
    }
    return out;
  }

 private:
  struct Trial {
    TrialSpec spec;
    TrialFn fn;
  };
  std::vector<Trial> trials_;
};

}  // namespace aqm::core
