#include "core/cpu_reservation_manager.hpp"

#include "orb/cdr.hpp"
#include "orb/servant.hpp"

namespace aqm::core {
namespace {

std::vector<std::uint8_t> encode_create_reply(const Result<os::ReserveId>& result) {
  orb::CdrWriter w;
  w.write_bool(result.ok());
  if (result.ok()) {
    w.write_u64(result.value());
  } else {
    w.write_string(result.error());
  }
  return w.take();
}

Result<os::ReserveId> decode_create_reply(const std::vector<std::uint8_t>& body) {
  orb::CdrReader r(body);
  if (r.read_bool()) return Result<os::ReserveId>{r.read_u64()};
  return Result<os::ReserveId>::err(r.read_string());
}

}  // namespace

void write_reserve_spec(orb::CdrWriter& w, const os::ReserveSpec& spec) {
  w.write_i64(spec.compute.ns());
  w.write_i64(spec.period.ns());
  w.write_bool(spec.hard);
}

os::ReserveSpec read_reserve_spec(orb::CdrReader& r) {
  os::ReserveSpec spec;
  spec.compute = Duration{r.read_i64()};
  spec.period = Duration{r.read_i64()};
  spec.hard = r.read_bool();
  return spec;
}

std::vector<std::uint8_t> encode_status_reply(const Status<std::string>& status) {
  orb::CdrWriter w;
  w.write_bool(status.ok());
  if (!status.ok()) w.write_string(status.error());
  return w.take();
}

Status<std::string> decode_status_reply(const std::vector<std::uint8_t>& body) {
  orb::CdrReader r(body);
  if (r.read_bool()) return {};
  return Status<std::string>::err(r.read_string());
}

CpuReservationManagerServer::CpuReservationManagerServer(orb::Poa& poa, os::Cpu& cpu) {
  // Reservation signaling is control-plane work: cheap and fast.
  auto servant = std::make_shared<orb::FunctionServant>(
      microseconds(30), [&cpu](orb::ServerRequest& req) {
        orb::CdrReader r(req.body);
        if (req.operation == kCreateReserveOp) {
          req.reply_body = encode_create_reply(cpu.create_reserve(read_reserve_spec(r)));
          return;
        }
        if (req.operation == kUpdateReserveOp) {
          const os::ReserveId id = r.read_u64();
          req.reply_body = encode_status_reply(cpu.update_reserve(id, read_reserve_spec(r)));
          return;
        }
        if (req.operation == kDestroyReserveOp) {
          cpu.destroy_reserve(r.read_u64());
          orb::CdrWriter w;
          w.write_bool(true);
          req.reply_body = w.take();
          return;
        }
        throw orb::BadParam("unknown reservation-manager operation: " + req.operation);
      });
  ref_ = poa.activate_object(kCpuReserveManagerObjectId, std::move(servant));
}

CpuReservationClient::CpuReservationClient(orb::OrbEndpoint& orb, orb::ObjectRef manager)
    : stub_(orb, std::move(manager)) {}

void CpuReservationClient::create_reserve(const os::ReserveSpec& spec, CreateCallback cb,
                                          Duration timeout) {
  orb::CdrWriter w;
  write_reserve_spec(w, spec);
  stub_.twoway(kCreateReserveOp, w.take(), reply_handler(std::move(cb), decode_create_reply),
               timeout);
}

void CpuReservationClient::update_reserve(os::ReserveId id, const os::ReserveSpec& spec,
                                          UpdateCallback cb, Duration timeout) {
  orb::CdrWriter w;
  w.write_u64(id);
  write_reserve_spec(w, spec);
  stub_.twoway(kUpdateReserveOp, w.take(), reply_handler(std::move(cb), decode_status_reply),
               timeout);
}

void CpuReservationClient::destroy_reserve(os::ReserveId id, DestroyCallback cb,
                                           Duration timeout) {
  orb::CdrWriter w;
  w.write_u64(id);
  stub_.twoway(kDestroyReserveOp, w.take(),
               [cb = std::move(cb)](orb::CompletionStatus status,
                                    std::vector<std::uint8_t>) {
                 if (cb) cb(status == orb::CompletionStatus::Ok);
               },
               timeout);
}

}  // namespace aqm::core
