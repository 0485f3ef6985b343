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
// write, via parse_experiment_options().
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/parallel_runner.hpp"

namespace aqm::core {

struct TrialSpec {
  std::string name;        // stable label, used by drivers when printing
  std::uint64_t seed = 0;  // sole randomness input of the trial
  std::size_t index = 0;   // position in the experiment (assigned by add())
};

struct ExperimentOptions {
  /// Worker threads; 0 = one per hardware thread, 1 = inline (no threads).
  unsigned jobs = 1;
  /// Print one '.' to stderr as each trial finishes (multi-trial runs only).
  bool progress = true;
  /// Non-empty: the driver writes a Chrome trace-event JSON (load in
  /// Perfetto / chrome://tracing) of an instrumented trial here.
  std::string trace_path;
  /// Non-empty: the driver writes the per-trial + merged metrics sidecar
  /// JSON here.
  std::string metrics_path;
  /// Non-empty: the driver writes the per-trial + merged SLO health-event
  /// sidecar JSON here.
  std::string slo_path;
  /// Non-empty: the driver writes the flight-recorder breach dump sidecar
  /// JSON here.
  std::string flight_path;
};

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

/// Parses and strips `--jobs N`, `--jobs=N`, `-jN`, `-j N` and, for each
/// Sidecar bit set in `sidecars`, `--<name> FILE` / `--<name>=FILE` (trace,
/// metrics, slo, flight) from an argv-style array (argc is updated). Any
/// other argument, an undeclared sidecar flag included, prints a usage line
/// listing the accepted flags; that and an unparsable value exit with 2.
ExperimentOptions parse_experiment_options(int& argc, char** argv, unsigned sidecars);

/// Decorrelates a per-trial seed from an experiment base seed and a trial
/// index (splitmix64 finalizer), so sweeps get independent streams without
/// hand-picking constants.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

namespace detail {
void report_trial_done(bool enabled);
}  // namespace detail

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
  /// no locking and the output is independent of the worker count.
  [[nodiscard]] std::vector<Result> run(const ExperimentOptions& opts = {}) const {
    std::vector<std::optional<Result>> slots(trials_.size());
    const sim::ParallelRunner runner(opts.jobs);
    const bool progress = opts.progress && trials_.size() > 1;
    runner.run(trials_.size(), [&](std::size_t i) {
      slots[i] = trials_[i].fn(trials_[i].spec);
      detail::report_trial_done(progress);
    });
    std::vector<Result> out;
    out.reserve(slots.size());
    for (auto& slot : slots) out.push_back(std::move(*slot));
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
