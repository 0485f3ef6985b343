// Streaming statistics, histograms and time series used by experiment
// harnesses and QuO system condition objects.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace aqm {

/// Welford-style running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x);
  void clear();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  /// Mean of the observed samples; 0 when empty.
  [[nodiscard]] double mean() const;
  /// Sample variance (n-1 denominator); 0 when fewer than 2 samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel Welford merge).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Fixed-bucket histogram over [lo, hi); out-of-range samples are clamped
/// into the first/last bucket so totals always match the sample count.
/// Two bucket layouts share the same interface: the default linear layout
/// (equal-width buckets) and an HDR-style geometric layout from
/// `log_scaled` (equal-ratio buckets, so relative quantile error is
/// bounded across several orders of magnitude — the right shape for
/// latency p50/p99 tracking).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  /// Geometric bucket edges lo * (hi/lo)^(i/buckets); requires 0 < lo < hi.
  /// Samples <= lo clamp into the first bucket.
  [[nodiscard]] static Histogram log_scaled(double lo, double hi, std::size_t buckets);

  void add(double x);
  /// Bucket index `x` lands in — exposed so hot paths that feed several
  /// same-layout histograms classify once (one log for the log layout)
  /// and add_at() the shared index into each. Inline: telemetry
  /// observation points sit on the engine hot loop.
  [[nodiscard]] std::size_t bucket_index(double x) const {
    std::int64_t idx;
    if (log_scale_) {
      // Samples at or below lo (including non-positive values, which have
      // no logarithm) clamp into the first bucket.
      idx = x <= lo_ ? 0 : static_cast<std::int64_t>(std::log(x / lo_) * inv_log_step_);
    } else {
      const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
      idx = static_cast<std::int64_t>((x - lo_) / w);
    }
    idx = std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(counts_.size()) - 1);
    return static_cast<std::size_t>(idx);
  }
  /// Increments the bucket at an index computed by bucket_index() on a
  /// histogram with the same layout.
  void add_at(std::size_t idx) {
    ++counts_[idx];
    ++total_;
  }
  void clear();

  [[nodiscard]] std::size_t count() const { return total_; }
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] bool log_scale() const { return log_scale_; }
  [[nodiscard]] double bucket_lo(std::size_t i) const;
  [[nodiscard]] double bucket_hi(std::size_t i) const;

  /// Linear-interpolated quantile in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  /// Merges another histogram with identical layout (bounds, bucket count
  /// and scale; bucket-wise sum). Returns false (and leaves this
  /// unchanged) on a layout mismatch.
  bool merge(const Histogram& other);

 private:
  [[nodiscard]] bool same_layout(const Histogram& other) const;

  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::size_t total_ = 0;
  bool log_scale_ = false;
  // Cached for the log layout: step = ln(hi/lo)/buckets and its inverse.
  double log_step_ = 0.0;
  double inv_log_step_ = 0.0;
};

/// A (time, value) series with helpers for per-interval aggregation.
/// Used to emit the per-second figure data the paper plots.
class TimeSeries {
 public:
  struct Point {
    TimePoint t;
    double value;
  };

  void add(TimePoint t, double value) { points_.push_back({t, value}); }
  void clear() { points_.clear(); }

  [[nodiscard]] const std::vector<Point>& points() const { return points_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] std::size_t size() const { return points_.size(); }

  /// Stats over all points with t in [from, to).
  [[nodiscard]] RunningStats stats_between(TimePoint from, TimePoint to) const;
  /// Stats over the whole series.
  [[nodiscard]] RunningStats stats() const;

  struct Bucket {
    TimePoint start;
    std::size_t count;
    double mean;
    double min;
    double max;
  };
  /// Aggregates points into consecutive intervals of the given width,
  /// starting at t=0. Empty intervals are included with count 0.
  [[nodiscard]] std::vector<Bucket> bucketize(Duration width, TimePoint end) const;

 private:
  std::vector<Point> points_;
};

/// Renders a bucketized series as aligned text rows (one per interval),
/// for benchmark output that mirrors the paper's figures.
std::string format_series_table(const std::vector<TimeSeries::Bucket>& buckets,
                                const std::string& value_label);

}  // namespace aqm
