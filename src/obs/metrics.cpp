#include "obs/metrics.hpp"

#include <ostream>

#include "obs/json.hpp"

namespace aqm::obs {
namespace {

std::string pad(int indent) { return std::string(static_cast<std::size_t>(indent), ' '); }

void write_stats_object(std::string& line, const RunningStats& s) {
  line += "{";
  json::member(line, "count", s.count());
  json::member(line, "mean", s.mean());
  json::member(line, "min", s.empty() ? 0.0 : s.min());
  json::member(line, "max", s.empty() ? 0.0 : s.max());
  json::member(line, "sum", s.sum());
  line += "}";
}

void write_histogram_object(std::string& line, const Histogram& h) {
  line += "{";
  json::member(line, "count", h.count());
  json::member(line, "lo", h.bucket_lo(0));
  json::member(line, "hi", h.bucket_hi(h.bucket_count() - 1));
  json::member(line, "p50", h.quantile(0.5));
  json::member(line, "p90", h.quantile(0.9));
  json::member(line, "p99", h.quantile(0.99));
  json::member(line, "buckets");
  line += " [";
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (i > 0) line += ",";
    line += std::to_string(h.bucket(i));
  }
  line += "]}";
}

/// One name-sorted section, `"name": {"key": value, ...}` with one entry
/// per line; `write_value` appends an entry's value.
template <typename Map, typename WriteValue>
void write_section(std::ostream& os, const std::string& p1, const char* name, const Map& map,
                   WriteValue write_value, const char* close) {
  std::string line;
  os << p1 << '"' << name << "\": {";
  bool first = true;
  for (const auto& [key, value] : map) {
    line.clear();
    line += first ? "\n" : ",\n";
    line += p1 + "  ";
    json::key(line, key);
    line += " ";
    write_value(line, value);
    os << line;
    first = false;
  }
  os << (first ? "" : "\n" + p1) << close;
}

}  // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, s] : other.gauges) gauges[name].merge(s);
  for (const auto& [name, s] : other.stats) stats[name].merge(s);
  for (const auto& [name, h] : other.histograms) {
    const auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms.emplace(name, h);
    } else if (!it->second.merge(h)) {
      ++merge_conflicts;
    }
  }
  merge_conflicts += other.merge_conflicts;
}

void MetricsSnapshot::write_json(std::ostream& os, int indent) const {
  const std::string p1 = pad(indent + 2);
  os << "{\n";
  write_section(
      os, p1, "counters", counters,
      [](std::string& line, std::uint64_t v) { line += std::to_string(v); }, "},\n");
  write_section(os, p1, "gauges", gauges, write_stats_object, "},\n");
  write_section(os, p1, "stats", stats, write_stats_object, "},\n");
  write_section(os, p1, "histograms", histograms, write_histogram_object, "}\n");
  os << pad(indent) << "}";
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

RunningStats& MetricsRegistry::stats(std::string_view name) {
  const auto it = stats_.find(name);
  if (it != stats_.end()) return it->second;
  return stats_.emplace(std::string(name), RunningStats{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name, double lo, double hi,
                                      std::size_t buckets) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram(lo, hi, buckets)).first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters.emplace(name, c.value());
  for (const auto& [name, g] : gauges_) {
    RunningStats s;
    if (g.is_set()) s.add(g.value());
    snap.gauges.emplace(name, s);
  }
  for (const auto& [name, s] : stats_) snap.stats.emplace(name, s);
  for (const auto& [name, h] : histograms_) snap.histograms.emplace(name, h);
  return snap;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  stats_.clear();
  histograms_.clear();
}

}  // namespace aqm::obs
