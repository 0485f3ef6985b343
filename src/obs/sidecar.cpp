#include "obs/sidecar.hpp"

#include <ostream>
#include <string>

#include "obs/json.hpp"

namespace aqm::obs {
namespace {

/// Opens the document and writes its "trials" array, one
/// `{"name": ..., "<section>": <write_body>}` per trial, up to the
/// "merged" key.
template <typename WriteBody>
void write_trials(std::ostream& os, const std::vector<NamedTrialObs>& trials,
                  const char* section, WriteBody write_body) {
  os << "{\n  \"trials\": [";
  std::string head;
  bool first = true;
  for (const NamedTrialObs& t : trials) {
    head.assign(first ? "\n" : ",\n");
    head += "    {\"name\": ";
    json::string(head, t.name);
    head += ", \"";
    head += section;
    head += "\": ";
    os << head;
    write_body(t.obs);
    os << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n  \"merged\": ";
}

void append_window(std::string& out, const WindowStats& w) {
  out += "{";
  json::member(out, "calls", w.calls);
  json::member(out, "misses", w.misses);
  json::member(out, "deliveries", w.deliveries);
  json::member(out, "drops", w.drops);
  json::member(out, "bytes", w.bytes);
  json::member(out, "miss_rate", w.miss_rate);
  json::member(out, "drop_rate", w.drop_rate);
  json::member(out, "p99_latency_ms", w.p99_latency_ms);
  json::member(out, "throughput_bps", w.throughput_bps);
  out += "}";
}

void append_health_event(std::string& out, const HealthEvent& e) {
  out += "{";
  json::member(out, "t_ms", static_cast<double>(e.t_ns) / 1e6);
  json::member(out, "flow", e.flow);
  json::member(out, "type", e.breach ? "breach" : "recover");
  json::member(out, "metric", e.metric);
  json::member(out, "value", e.value);
  json::member(out, "threshold", e.threshold);
  json::member(out, "window");
  append_window(out, e.window);
  out += "}";
}

/// The `"flows": {...}` member of a health object (indented under `p1`)
/// and the object's closing brace.
void write_flows_and_close(std::ostream& os,
                           const std::map<std::uint64_t, FlowHealthSummary>& flows,
                           const char* p1) {
  std::string line;
  os << p1 << "  \"flows\": {";
  bool first = true;
  for (const auto& [flow, s] : flows) {
    line.assign(first ? "\n" : ",\n");
    line += p1;
    line += "    ";
    json::key(line, "flow" + std::to_string(flow));
    line += " {";
    json::member(line, "breaches", s.breaches);
    json::member(line, "recoveries", s.recoveries);
    json::member(line, "breached_ms", static_cast<double>(s.breached_ns) / 1e6);
    line += "}";
    os << line;
    first = false;
  }
  if (!first) os << "\n" << p1 << "  ";
  os << "}\n" << p1 << "}";
}

void write_health_object(std::ostream& os, const HealthReport& r, const char* p1) {
  std::string line;
  os << "{\n" << p1 << "  \"events\": [";
  bool first = true;
  for (const HealthEvent& e : r.events) {
    line.assign(first ? "\n" : ",\n");
    line += p1;
    line += "    ";
    append_health_event(line, e);
    os << line;
    first = false;
  }
  if (!first) os << "\n" << p1 << "  ";
  os << "],\n";
  write_flows_and_close(os, r.flows, p1);
}

void append_flight_event(std::string& line, const FlightEvent& e) {
  json::member(line, "t_ms", static_cast<double>(e.ts_ns) / 1e6);
  json::member(line, "cat", e.cat);
  json::member(line, "name", e.name);
  json::member(line, "id", e.id);
  if (e.argc > 0) {
    json::member(line, "args");
    line += "{";
    for (std::uint8_t i = 0; i < e.argc; ++i) {
      json::member(line, e.args[i].first, e.args[i].second);
    }
    line += "}";
  }
}

}  // namespace

void write_trace_sidecar(std::ostream& os, const std::vector<NamedTrialObs>& trials) {
  for (const NamedTrialObs& t : trials) {
    if (t.obs.trace != nullptr) {
      t.obs.trace->write_chrome_json(os);
      return;
    }
  }
  TraceRecorder().write_chrome_json(os);
}

void write_metrics_sidecar(std::ostream& os, const std::vector<NamedTrialObs>& trials) {
  MetricsSnapshot merged;
  write_trials(os, trials, "metrics", [&](const TrialObs& t) {
    t.metrics.write_json(os, 4);
    merged.merge(t.metrics);
  });
  merged.write_json(os, 2);
  os << "\n}\n";
}

void write_health_sidecar(std::ostream& os, const std::vector<NamedTrialObs>& trials) {
  HealthReport merged;
  std::uint64_t merged_events = 0;
  write_trials(os, trials, "health", [&](const TrialObs& t) {
    write_health_object(os, t.health, "    ");
    merged_events += t.health.events.size();
    for (const auto& [flow, s] : t.health.flows) {
      FlowHealthSummary& m = merged.flows[flow];
      m.breaches += s.breaches;
      m.recoveries += s.recoveries;
      m.breached_ns += s.breached_ns;
    }
  });
  os << "{\n    \"events\": " << merged_events << ",\n";
  write_flows_and_close(os, merged.flows, "  ");
  os << "\n}\n";
}

void write_flight_sidecar(std::ostream& os, const std::vector<NamedTrialObs>& trials) {
  os << "{\n  \"dumps\": [";
  std::string line;
  bool first = true;
  for (const NamedTrialObs& t : trials) {
    for (const FlightDump& d : t.obs.flight_dumps) {
      line.assign(first ? "\n" : ",\n");
      line += "    {";
      json::member(line, "trial", t.name);
      json::member(line, "t_ms", static_cast<double>(d.t_ns) / 1e6);
      json::member(line, "flow", d.flow);
      json::member(line, "metric", d.metric);
      json::member(line, "ring_overwritten", d.ring_overwritten);
      json::member(line, "events");
      line += "[";
      os << line;
      bool efirst = true;
      for (const FlightEvent& e : d.events) {
        line.assign(efirst ? "\n      {" : ",\n      {");
        append_flight_event(line, e);
        line += "}";
        os << line;
        efirst = false;
      }
      os << (efirst ? "]}" : "\n    ]}");
      first = false;
    }
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
}

}  // namespace aqm::obs
