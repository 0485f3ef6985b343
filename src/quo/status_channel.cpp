#include "quo/status_channel.hpp"

#include <cassert>

#include "orb/cdr.hpp"
#include "orb/servant.hpp"

namespace aqm::quo {

std::vector<std::uint8_t> encode_status_report(const StatusReport& report) {
  orb::CdrWriter w;
  w.write_i64(report.sent_at.ns());
  w.write_u32(static_cast<std::uint32_t>(report.values.size()));
  for (const auto& [name, value] : report.values) {
    w.write_string(name);
    w.write_f64(value);
  }
  return w.take();
}

StatusReport decode_status_report(const std::vector<std::uint8_t>& body) {
  orb::CdrReader r(body);
  StatusReport report;
  report.sent_at = TimePoint{r.read_i64()};
  const std::uint32_t n = r.read_u32();
  if (n > 4096) throw orb::MarshalError("unreasonable status-report entry count");
  report.values.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = r.read_string();
    const double value = r.read_f64();
    report.values.emplace_back(std::move(name), value);
  }
  return report;
}

StatusCollector::StatusCollector(orb::Poa& poa, const std::string& object_id) {
  auto servant = std::make_shared<orb::FunctionServant>(
      microseconds(20), [this](orb::ServerRequest& req) {
        if (req.operation != kStatusReportOp) return;
        apply(decode_status_report(req.body));
        ++received_;
        last_at_ = req.handled_at;
      });
  ref_ = poa.activate_object(object_id, std::move(servant));
}

ValueSysCond& StatusCollector::condition(const std::string& name, double initial) {
  auto it = conditions_.find(name);
  if (it == conditions_.end()) {
    it = conditions_.emplace(name, std::make_unique<ValueSysCond>(name, initial)).first;
  }
  return *it->second;
}

void StatusCollector::apply(const StatusReport& report) {
  for (const auto& [name, value] : report.values) {
    const auto it = conditions_.find(name);
    if (it != conditions_.end()) it->second->update(value);
  }
}

StatusReporter::StatusReporter(orb::OrbEndpoint& orb, orb::ObjectRef collector,
                               Duration period, net::Dscp dscp)
    : orb_(orb),
      stub_(orb, std::move(collector)),
      timer_(orb.engine(), period, [this] { emit(); }) {
  stub_.ref().protocol.dscp = dscp;
}

StatusReporter& StatusReporter::probe(const std::string& name, Probe fn) {
  assert(fn);
  probes_.emplace_back(name, std::move(fn));
  return *this;
}

void StatusReporter::emit() {
  StatusReport report;
  report.sent_at = orb_.engine().now();
  report.values.reserve(probes_.size());
  for (const auto& [name, fn] : probes_) report.values.emplace_back(name, fn());
  stub_.oneway(kStatusReportOp, encode_status_report(report));
}

}  // namespace aqm::quo
