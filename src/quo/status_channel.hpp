// Distributed system-condition plumbing.
//
// QuO contracts often depend on conditions measured on *other* hosts
// (Figure 1's "Status Collection" path): a receiver knows the delivery
// rate, the sender's contract needs it. A StatusReporter periodically
// pushes a set of named scalar values over the ORB (oneway, low-rate,
// optionally DSCP-marked so reports survive congestion); a StatusCollector
// servant on the consuming host feeds them into ValueSysConds, which
// contracts observe as usual.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "orb/orb.hpp"
#include "quo/syscond.hpp"
#include "sim/engine.hpp"

namespace aqm::quo {

inline constexpr const char* kStatusReportOp = "quo_status_report";

/// Wire codec for a report: sequence of (name, value) pairs plus the
/// sender-side timestamp.
struct StatusReport {
  TimePoint sent_at{};
  std::vector<std::pair<std::string, double>> values;
};

[[nodiscard]] std::vector<std::uint8_t> encode_status_report(const StatusReport& report);
/// Throws orb::MarshalError on malformed input.
[[nodiscard]] StatusReport decode_status_report(const std::vector<std::uint8_t>& body);

/// Consumer side: a servant that updates registered ValueSysConds from
/// incoming reports. Conditions not mentioned in a report are untouched;
/// report entries with no registered condition are ignored.
class StatusCollector {
 public:
  /// Activates the collector servant as `<object_id>` in `poa`.
  StatusCollector(orb::Poa& poa, const std::string& object_id);

  /// Registers (or creates) the condition updated by entries named `name`.
  ValueSysCond& condition(const std::string& name, double initial = 0.0);

  [[nodiscard]] const orb::ObjectRef& ref() const { return ref_; }
  [[nodiscard]] std::uint64_t reports_received() const { return received_; }
  /// Simulation time of the most recent report, if any.
  [[nodiscard]] std::optional<TimePoint> last_report_at() const { return last_at_; }

 private:
  void apply(const StatusReport& report);

  orb::ObjectRef ref_;
  std::map<std::string, std::unique_ptr<ValueSysCond>> conditions_;
  std::uint64_t received_ = 0;
  std::optional<TimePoint> last_at_;
};

/// Producer side: samples named probes on a period and pushes a report.
class StatusReporter {
 public:
  using Probe = std::function<double()>;

  /// Reports travel as oneways to `collector`; `dscp` (default CS6-ish EF)
  /// keeps the control channel alive under data-plane congestion.
  StatusReporter(orb::OrbEndpoint& orb, orb::ObjectRef collector,
                 Duration period = milliseconds(500),
                 net::Dscp dscp = net::dscp::kCs6);

  /// Adds a named probe sampled at every report.
  StatusReporter& probe(const std::string& name, Probe fn);

  void start() { timer_.start(); }
  void stop() { timer_.stop(); }
  [[nodiscard]] bool running() const { return timer_.running(); }

 private:
  void emit();

  orb::OrbEndpoint& orb_;
  orb::ObjectStub stub_;
  std::vector<std::pair<std::string, Probe>> probes_;
  sim::PeriodicTimer timer_;
};

}  // namespace aqm::quo
