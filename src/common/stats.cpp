#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <iomanip>

namespace aqm {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::clear() { *this = RunningStats{}; }

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  mean_ += delta * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  assert(hi > lo);
  assert(buckets > 0);
}

Histogram Histogram::log_scaled(double lo, double hi, std::size_t buckets) {
  assert(lo > 0.0);
  Histogram h(lo, hi, buckets);
  h.log_scale_ = true;
  h.log_step_ = std::log(hi / lo) / static_cast<double>(buckets);
  h.inv_log_step_ = 1.0 / h.log_step_;
  return h;
}

void Histogram::add(double x) { add_at(bucket_index(x)); }

void Histogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

double Histogram::bucket_lo(std::size_t i) const {
  if (log_scale_) {
    if (i == 0) return lo_;
    if (i >= counts_.size()) return hi_;
    return lo_ * std::exp(log_step_ * static_cast<double>(i));
  }
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + w * static_cast<double>(i);
}

double Histogram::bucket_hi(std::size_t i) const { return bucket_lo(i + 1); }

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    // Empty buckets never satisfy a quantile: q=0 should land in the first
    // occupied bucket, not at the histogram's lower bound.
    if (counts_[i] == 0) continue;
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return bucket_lo(i) + frac * (bucket_hi(i) - bucket_lo(i));
    }
    cum = next;
  }
  return hi_;
}

bool Histogram::same_layout(const Histogram& other) const {
  return lo_ == other.lo_ && hi_ == other.hi_ &&
         counts_.size() == other.counts_.size() && log_scale_ == other.log_scale_;
}

bool Histogram::merge(const Histogram& other) {
  if (!same_layout(other)) return false;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  return true;
}

RunningStats TimeSeries::stats_between(TimePoint from, TimePoint to) const {
  RunningStats s;
  for (const auto& p : points_) {
    if (p.t >= from && p.t < to) s.add(p.value);
  }
  return s;
}

RunningStats TimeSeries::stats() const {
  return stats_between(TimePoint::zero(), TimePoint::max());
}

std::vector<TimeSeries::Bucket> TimeSeries::bucketize(Duration width, TimePoint end) const {
  assert(width > Duration::zero());
  std::vector<Bucket> out;
  for (TimePoint start = TimePoint::zero(); start < end; start = start + width) {
    const RunningStats s = stats_between(start, start + width);
    out.push_back({start, s.count(), s.mean(), s.empty() ? 0.0 : s.min(),
                   s.empty() ? 0.0 : s.max()});
  }
  return out;
}

std::string format_series_table(const std::vector<TimeSeries::Bucket>& buckets,
                                const std::string& value_label) {
  std::ostringstream os;
  os << std::setw(10) << "t(s)" << std::setw(10) << "count" << std::setw(14)
     << ("mean " + value_label) << std::setw(14) << "min" << std::setw(14) << "max"
     << "\n";
  os << std::fixed << std::setprecision(3);
  for (const auto& b : buckets) {
    os << std::setw(10) << b.start.seconds() << std::setw(10) << b.count
       << std::setw(14) << b.mean << std::setw(14) << b.min << std::setw(14) << b.max
       << "\n";
  }
  return os.str();
}

}  // namespace aqm
