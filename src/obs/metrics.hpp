// Unified metrics registry: named counters, gauges, summary stats and
// histograms, snapshot into plain mergeable data and emitted as JSON.
//
// Determinism contract (mirrors the parallel-execution contract of
// DESIGN.md §6): a registry is local to one trial, filled by that trial's
// single-threaded simulation, and snapshot()ed into the trial's result
// slot. Drivers merge snapshots in trial-index order, so the merged JSON
// is byte-identical for any --jobs value. All maps are name-sorted and
// doubles are printed with a fixed format, so "same inputs" means "same
// bytes".
//
// Merge semantics across shards/trials:
//  * counters    — sum.
//  * gauges      — each snapshot contributes one sample; merged output
//                  reports count/mean/min/max over shards (a deterministic
//                  way to combine "current value" metrics like utilization).
//  * stats       — Welford merge (RunningStats::merge).
//  * histograms  — bucket-wise sum (identical bounds required).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "common/stats.hpp"

namespace aqm::obs {

class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_ += d; }
  void set(std::uint64_t v) { v_ = v; }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

class Gauge {
 public:
  void set(double v) {
    v_ = v;
    set_ = true;
  }
  [[nodiscard]] double value() const { return v_; }
  [[nodiscard]] bool is_set() const { return set_; }

 private:
  double v_ = 0.0;
  bool set_ = false;
};

/// Plain-data snapshot of a registry; mergeable and serializable.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  /// Gauges become single-sample stats so merged output can report the
  /// spread across shards.
  std::map<std::string, RunningStats> gauges;
  std::map<std::string, RunningStats> stats;
  std::map<std::string, Histogram> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && stats.empty() && histograms.empty();
  }

  /// Merges another snapshot into this one (see merge semantics above).
  /// Histogram merges require identical bounds/bucket counts; mismatches
  /// keep the existing entry and are counted in `merge_conflicts`.
  void merge(const MetricsSnapshot& other);
  std::uint64_t merge_conflicts = 0;

  /// Deterministic JSON object: {"counters":{...},"gauges":{...},
  /// "stats":{...},"histograms":{...}}. `indent` is the number of leading
  /// spaces on nested lines (pretty, stable).
  void write_json(std::ostream& os, int indent = 0) const;
};

/// Live registry handed to components at export time (or held for the
/// trial's duration when incremental counting is wanted). Returned
/// references stay valid for the registry's lifetime (map nodes are
/// stable).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  RunningStats& stats(std::string_view name);
  /// Registers (or finds) a histogram. Bounds are fixed at first
  /// registration; later calls with the same name return the existing one.
  Histogram& histogram(std::string_view name, double lo, double hi, std::size_t buckets);

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + stats_.size() + histograms_.size();
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;
  void clear();

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, RunningStats, std::less<>> stats_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace aqm::obs
