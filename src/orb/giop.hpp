// GIOP 1.2-style message encoding over CDR.
//
// Layout (all CDR-encoded, little-endian with the byte-order flag set):
//   header : 'G' 'I' 'O' 'P'  ver_major  ver_minor  flags  msg_type  msg_size
//   Request: request_id(u32) response_flags(u8) object_key(string)
//            operation(string) service_contexts(seq) body(raw octets)
//   Reply  : request_id(u32) reply_status(u32) service_contexts(seq) body
//
// Service contexts are (id, octet-sequence) pairs. The RTCorbaPriority
// context propagates the client's RT-CORBA priority end-to-end (Figure 2 in
// the paper); a vendor context carries the send timestamp used by the
// experiments to measure one-way latency. The ORB stamps contexts on
// requests only; its replies carry none.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/time.hpp"
#include "orb/cdr.hpp"
#include "orb/types.hpp"

namespace aqm::orb {

enum class GiopMsgType : std::uint8_t { Request = 0, Reply = 1 };

/// Reply status values (subset of GIOP's ReplyStatusType).
enum class ReplyStatus : std::uint32_t {
  NoException = 0,
  SystemException = 2,
};

struct ServiceContext {
  std::uint32_t id = 0;
  std::vector<std::uint8_t> data;
};

/// RTCorbaPriority service context (RT-CORBA 1.0 §4, IOP service id).
inline constexpr std::uint32_t kRtCorbaPriorityContextId = 21;
/// Vendor context: simulation send timestamp for latency measurement.
inline constexpr std::uint32_t kTimestampContextId = 0x41514D01;
/// Vendor context: absolute end-to-end deadline (simulation clock). The
/// server ORB drops requests that arrive expired before any servant work
/// is spent on them.
inline constexpr std::uint32_t kDeadlineContextId = 0x41514D03;

struct RequestHeader {
  std::uint32_t request_id = 0;
  bool response_expected = true;
  std::string object_key;
  std::string operation;
  std::vector<ServiceContext> contexts;
};

struct ReplyHeader {
  std::uint32_t request_id = 0;
  ReplyStatus status = ReplyStatus::NoException;
  std::vector<ServiceContext> contexts;
};

struct GiopMessage {
  GiopMsgType type = GiopMsgType::Request;
  RequestHeader request;  // valid when type == Request
  ReplyHeader reply;      // valid when type == Reply
  std::vector<std::uint8_t> body;
};

[[nodiscard]] std::vector<std::uint8_t> encode_request(const RequestHeader& header,
                                                       std::span<const std::uint8_t> body);
[[nodiscard]] std::vector<std::uint8_t> encode_reply(const ReplyHeader& header,
                                                     std::span<const std::uint8_t> body);

/// Zero-allocation variants: encode into `out` (cleared first), reusing its
/// capacity. These are the hot path — the ORB encodes into pooled buffers.
void encode_request(const RequestHeader& header, std::span<const std::uint8_t> body,
                    std::vector<std::uint8_t>& out);
void encode_reply(const ReplyHeader& header, std::span<const std::uint8_t> body,
                  std::vector<std::uint8_t>& out);

/// Parses a full GIOP message; throws MarshalError on malformed input.
[[nodiscard]] GiopMessage decode(std::span<const std::uint8_t> bytes);

/// Capacity-reusing decode: parses into `out`, reusing its strings,
/// context vectors, and body storage. The steady-state receive path
/// decodes every message into one scratch GiopMessage and allocates
/// nothing once warm. Fields of the non-matching header (request vs
/// reply) are left stale; `out.type` discriminates.
void decode_into(GiopMessage& out, std::span<const std::uint8_t> bytes);

// --- service-context helpers ---------------------------------------------------

/// Moves every context of `contexts` into `spare` (element and byte-buffer
/// capacity included), leaving `contexts` empty for the next message.
void recycle_contexts(std::vector<ServiceContext>& contexts,
                      std::vector<ServiceContext>& spare);
/// Appends a context with `id` and returns its emptied data buffer. The
/// element comes from `spare` when that holds one, so a scratch header
/// restamped for every message allocates nothing once warm.
std::vector<std::uint8_t>& append_context(std::vector<ServiceContext>& contexts,
                                          std::uint32_t id,
                                          std::vector<ServiceContext>* spare);

/// In-place stampers: append the context, reusing a spare element.
/// make_*_context below builds the same context standalone.
void stamp_priority_context(std::vector<ServiceContext>& contexts, CorbaPriority priority,
                            std::vector<ServiceContext>* spare);
void stamp_timestamp_context(std::vector<ServiceContext>& contexts, TimePoint t,
                             std::vector<ServiceContext>* spare);
void stamp_deadline_context(std::vector<ServiceContext>& contexts, TimePoint deadline,
                            std::vector<ServiceContext>* spare);

[[nodiscard]] ServiceContext make_priority_context(CorbaPriority priority);
[[nodiscard]] std::optional<CorbaPriority> find_priority(
    const std::vector<ServiceContext>& contexts);

[[nodiscard]] ServiceContext make_timestamp_context(TimePoint t);
[[nodiscard]] std::optional<TimePoint> find_timestamp(
    const std::vector<ServiceContext>& contexts);

[[nodiscard]] ServiceContext make_deadline_context(TimePoint deadline);
[[nodiscard]] std::optional<TimePoint> find_deadline(
    const std::vector<ServiceContext>& contexts);

}  // namespace aqm::orb
