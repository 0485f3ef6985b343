#include "orb/giop.hpp"

#include <cstring>

namespace aqm::orb {
namespace {

constexpr std::uint8_t kMagic[4] = {'G', 'I', 'O', 'P'};
constexpr std::uint8_t kVersionMajor = 1;
constexpr std::uint8_t kVersionMinor = 2;
constexpr std::uint8_t kFlagLittleEndian = 0x01;
constexpr std::size_t kHeaderSize = 12;

void write_contexts(CdrWriter& w, const std::vector<ServiceContext>& contexts) {
  w.write_u32(static_cast<std::uint32_t>(contexts.size()));
  for (const auto& c : contexts) {
    w.write_u32(c.id);
    w.write_octets(c.data);
  }
}

/// Reads the context sequence into `out`, reusing the vector's elements
/// (and their data buffers) when the shapes line up — the common case for
/// a scratch GiopMessage decoding a stream of similarly stamped messages.
void read_contexts_into(CdrReader& r, std::vector<ServiceContext>& out) {
  const std::uint32_t n = r.read_u32();
  if (n > 1024) throw MarshalError("unreasonable service-context count");
  out.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out[i].id = r.read_u32();
    r.read_octets_into(out[i].data);
  }
}

void finish(CdrWriter& w) {
  // Patch msg_size = bytes after the 12-byte header.
  w.patch_u32(8, static_cast<std::uint32_t>(w.size() - kHeaderSize));
}

void write_header(CdrWriter& w, GiopMsgType type) {
  // One appended block instead of eight byte-wise writes: the header is
  // fixed-shape, so build it on the stack and let write_raw do one
  // capacity check. msg_size (last 4 bytes) is patched by finish().
  const std::uint8_t hdr[kHeaderSize] = {kMagic[0],     kMagic[1],
                                         kMagic[2],     kMagic[3],
                                         kVersionMajor, kVersionMinor,
                                         kFlagLittleEndian,
                                         static_cast<std::uint8_t>(type),
                                         0,             0,
                                         0,             0};
  w.write_raw(hdr);
}

}  // namespace

void encode_request(const RequestHeader& header, std::span<const std::uint8_t> body,
                    std::vector<std::uint8_t>& out) {
  out.clear();
  CdrWriter w(out);
  write_header(w, GiopMsgType::Request);
  w.write_u32(header.request_id);
  w.write_u8(header.response_expected ? 1 : 0);
  w.write_string(header.object_key);
  w.write_string(header.operation);
  write_contexts(w, header.contexts);
  w.align(8);  // GIOP 1.2 aligns the body to 8
  w.write_raw(body);
  finish(w);
}

void encode_reply(const ReplyHeader& header, std::span<const std::uint8_t> body,
                  std::vector<std::uint8_t>& out) {
  out.clear();
  CdrWriter w(out);
  write_header(w, GiopMsgType::Reply);
  w.write_u32(header.request_id);
  w.write_u32(static_cast<std::uint32_t>(header.status));
  write_contexts(w, header.contexts);
  w.align(8);
  w.write_raw(body);
  finish(w);
}

std::vector<std::uint8_t> encode_request(const RequestHeader& header,
                                         std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  encode_request(header, body, out);
  return out;
}

std::vector<std::uint8_t> encode_reply(const ReplyHeader& header,
                                       std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  encode_reply(header, body, out);
  return out;
}

void decode_into(GiopMessage& msg, std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) throw MarshalError("GIOP message shorter than header");
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) throw MarshalError("bad GIOP magic");
  const std::uint8_t flags = bytes[6];
  const bool big_endian = (flags & kFlagLittleEndian) == 0;
  const auto type_byte = bytes[7];
  if (type_byte > static_cast<std::uint8_t>(GiopMsgType::Reply)) {
    throw MarshalError("unknown GIOP message type");
  }

  CdrReader r(bytes, big_endian);
  r.skip(8);
  const std::uint32_t msg_size = r.read_u32();
  if (msg_size + kHeaderSize != bytes.size()) {
    throw MarshalError("GIOP message size mismatch");
  }

  msg.type = static_cast<GiopMsgType>(type_byte);
  if (msg.type == GiopMsgType::Request) {
    msg.request.request_id = r.read_u32();
    msg.request.response_expected = r.read_u8() != 0;
    r.read_string_into(msg.request.object_key);
    r.read_string_into(msg.request.operation);
    read_contexts_into(r, msg.request.contexts);
  } else {
    msg.reply.request_id = r.read_u32();
    const std::uint32_t status = r.read_u32();
    if (status != 0 && status != 2) throw MarshalError("unknown reply status");
    msg.reply.status = static_cast<ReplyStatus>(status);
    read_contexts_into(r, msg.reply.contexts);
  }
  r.align(8);
  const auto rest = r.remaining_bytes();
  msg.body.assign(rest.begin(), rest.end());
}

GiopMessage decode(std::span<const std::uint8_t> bytes) {
  GiopMessage msg;
  decode_into(msg, bytes);
  return msg;
}

void recycle_contexts(std::vector<ServiceContext>& contexts,
                      std::vector<ServiceContext>& spare) {
  for (ServiceContext& c : contexts) spare.push_back(std::move(c));
  contexts.clear();
}

std::vector<std::uint8_t>& append_context(std::vector<ServiceContext>& contexts,
                                          std::uint32_t id,
                                          std::vector<ServiceContext>* spare) {
  if (spare != nullptr && !spare->empty()) {
    contexts.push_back(std::move(spare->back()));
    spare->pop_back();
  } else {
    contexts.emplace_back();
  }
  ServiceContext& c = contexts.back();
  c.id = id;
  c.data.clear();
  return c.data;
}

void stamp_priority_context(std::vector<ServiceContext>& contexts, CorbaPriority priority,
                            std::vector<ServiceContext>* spare) {
  CdrWriter(append_context(contexts, kRtCorbaPriorityContextId, spare)).write_i32(priority);
}

void stamp_timestamp_context(std::vector<ServiceContext>& contexts, TimePoint t,
                             std::vector<ServiceContext>* spare) {
  CdrWriter(append_context(contexts, kTimestampContextId, spare)).write_i64(t.ns());
}

void stamp_deadline_context(std::vector<ServiceContext>& contexts, TimePoint deadline,
                            std::vector<ServiceContext>* spare) {
  CdrWriter(append_context(contexts, kDeadlineContextId, spare)).write_i64(deadline.ns());
}

ServiceContext make_priority_context(CorbaPriority priority) {
  std::vector<ServiceContext> one;
  stamp_priority_context(one, priority, nullptr);
  return std::move(one.front());
}

std::optional<CorbaPriority> find_priority(const std::vector<ServiceContext>& contexts) {
  for (const auto& c : contexts) {
    if (c.id != kRtCorbaPriorityContextId) continue;
    CdrReader r(c.data);
    return r.read_i32();
  }
  return std::nullopt;
}

ServiceContext make_timestamp_context(TimePoint t) {
  std::vector<ServiceContext> one;
  stamp_timestamp_context(one, t, nullptr);
  return std::move(one.front());
}

std::optional<TimePoint> find_timestamp(const std::vector<ServiceContext>& contexts) {
  for (const auto& c : contexts) {
    if (c.id != kTimestampContextId) continue;
    CdrReader r(c.data);
    return TimePoint{r.read_i64()};
  }
  return std::nullopt;
}

ServiceContext make_deadline_context(TimePoint deadline) {
  std::vector<ServiceContext> one;
  stamp_deadline_context(one, deadline, nullptr);
  return std::move(one.front());
}

std::optional<TimePoint> find_deadline(const std::vector<ServiceContext>& contexts) {
  for (const auto& c : contexts) {
    if (c.id != kDeadlineContextId) continue;
    CdrReader r(c.data);
    return TimePoint{r.read_i64()};
  }
  return std::nullopt;
}

}  // namespace aqm::orb
