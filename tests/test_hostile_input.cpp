// Hostile-input fuzzing with no external fuzzer: a seeded mutation loop
// over valid encodings. Each mutant is a truncation, a few bit flips, an
// overwritten 32-bit length field or an appended tail of a valid message.
// Every decoder must answer every mutant with a value or a MarshalError
// (a BadParam for the servants' unknown operations), and the servants'
// replies must stay decodable. Crashes and undefined behaviour surface
// under the ASan+UBSan build.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "avstreams/frame_codec.hpp"
#include "common/rng.hpp"
#include "core/cpu_reservation_manager.hpp"
#include "core/qos_control_plane.hpp"
#include "core/testbed.hpp"
#include "net/network.hpp"
#include "orb/cdr.hpp"
#include "orb/giop.hpp"
#include "orb/servant.hpp"
#include "orb/transport.hpp"
#include "quo/status_channel.hpp"
#include "sim/engine.hpp"

namespace aqm {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Mutants per target: the whole suite runs in about a second.
constexpr int kMutants = 25'000;

void put_u32_le(Bytes& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// One mutant of `seed`.
Bytes mutate(const Bytes& seed, Rng& rng) {
  Bytes b = seed;
  const auto last = [&b] { return static_cast<std::int64_t>(b.size()) - 1; };
  switch (rng.uniform_int(0, 3)) {
    case 0:  // truncation
      b.resize(b.empty() ? 0 : static_cast<std::size_t>(rng.uniform_int(0, last())));
      break;
    case 1:  // bit flips
      for (std::int64_t n = rng.uniform_int(1, 4); n > 0 && !b.empty(); --n) {
        b[static_cast<std::size_t>(rng.uniform_int(0, last()))] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      break;
    case 2:  // an overwritten length field: CDR lengths are 4-aligned u32s
      if (b.size() >= 4) {
        static constexpr std::uint32_t kHostile[] = {0,          1,          3,
                                                     0x7FFFFFFF, 0x80000000, 0xFFFFFFF0,
                                                     0xFFFFFFFF};
        const auto at = static_cast<std::size_t>(
            4 * rng.uniform_int(0, static_cast<std::int64_t>(b.size() / 4) - 1));
        const std::uint32_t v =
            rng.bernoulli(0.5)
                ? kHostile[static_cast<std::size_t>(rng.uniform_int(0, 6))]
                : static_cast<std::uint32_t>(
                      rng.uniform_int(0, 2 * static_cast<std::int64_t>(b.size())));
        put_u32_le(b, at, v);
      }
      break;
    default:  // an appended tail
      for (std::int64_t n = rng.uniform_int(1, 16); n > 0; --n) {
        b.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      }
      break;
  }
  return b;
}

/// Feeds `decode` every seed (which must decode) and kMutants mutants of
/// them (which must decode or throw MarshalError/BadParam; any other
/// exception fails the test).
template <typename Decode>
void fuzz(const std::vector<Bytes>& seeds, std::uint64_t rng_seed, Decode&& decode) {
  ASSERT_FALSE(seeds.empty());
  for (const Bytes& s : seeds) EXPECT_NO_THROW(decode(s));
  Rng rng(rng_seed);
  for (int i = 0; i < kMutants; ++i) {
    const Bytes m = mutate(seeds[static_cast<std::size_t>(i) % seeds.size()], rng);
    try {
      decode(m);
    } catch (const orb::MarshalError&) {
    } catch (const orb::BadParam&) {
    }
  }
}

std::vector<orb::ServiceContext> all_contexts() {
  return {orb::make_priority_context(20'000), orb::make_timestamp_context(TimePoint{123'456}),
          orb::make_deadline_context(TimePoint{999'999})};
}

/// Valid GIOP messages: requests with and without contexts, and replies
/// with and without them (the ORB stamps none on a reply, but bytes from
/// outside may carry some).
std::vector<Bytes> giop_seeds() {
  orb::RequestHeader req;
  req.request_id = 7;
  req.object_key = "app/target";
  req.operation = "frame";
  const Bytes body(40, 0x5A);
  std::vector<Bytes> seeds{orb::encode_request(req, body)};
  req.contexts = all_contexts();
  seeds.push_back(orb::encode_request(req, body));
  req.response_expected = false;
  seeds.push_back(orb::encode_request(req, {}));
  orb::ReplyHeader rep;
  rep.request_id = 7;
  seeds.push_back(orb::encode_reply(rep, body));
  rep.status = orb::ReplyStatus::SystemException;
  rep.contexts = all_contexts();
  seeds.push_back(orb::encode_reply(rep, Bytes{2, 0, 0, 0}));
  return seeds;
}

/// Decodes into a reused scratch message, as the ORB's receive path does,
/// then reads the contexts the way the server's dispatch does.
void decode_giop(orb::GiopMessage& scratch, std::span<const std::uint8_t> bytes) {
  orb::decode_into(scratch, bytes);
  const auto& contexts = scratch.type == orb::GiopMsgType::Request ? scratch.request.contexts
                                                                    : scratch.reply.contexts;
  (void)orb::find_priority(contexts);
  (void)orb::find_timestamp(contexts);
  (void)orb::find_deadline(contexts);
}

TEST(HostileInput, GiopDecodeInto) {
  orb::GiopMessage scratch;
  fuzz(giop_seeds(), 1, [&](const Bytes& b) { decode_giop(scratch, b); });
}

TEST(HostileInput, CdrStringAndOctetReads) {
  orb::CdrWriter w;
  w.write_string("cpu_reserve_manager");
  w.write_octets(Bytes{1, 2, 3, 4, 5, 6, 7});
  w.write_string("");
  w.write_octets(Bytes{});
  w.write_u32(42);
  std::string s;
  Bytes o;
  fuzz({w.take()}, 2, [&](const Bytes& b) {
    orb::CdrReader r(b);
    (void)r.read_string();
    (void)r.read_octets();
    r.read_string_into(s);
    r.read_octets_into(o);
    (void)r.read_u32();
  });
}

TEST(HostileInput, ServiceContextFinders) {
  for (const orb::ServiceContext& c : all_contexts()) {
    fuzz({c.data}, 10 + c.id, [&](const Bytes& b) {
      const std::vector<orb::ServiceContext> contexts{{c.id, b}};
      (void)orb::find_priority(contexts);
      (void)orb::find_timestamp(contexts);
      (void)orb::find_deadline(contexts);
    });
  }
}

TEST(HostileInput, StatusReportDecoder) {
  quo::StatusReport report;
  report.sent_at = TimePoint{5'000'000};
  report.values = {{"bandwidth_bps", 1.5e6}, {"loss", 0.02}, {"", -1.0}};
  std::vector<Bytes> seeds{quo::encode_status_report(report)};
  seeds.push_back(quo::encode_status_report(quo::StatusReport{}));
  fuzz(seeds, 4, [](const Bytes& b) { (void)quo::decode_status_report(b); });
}

TEST(HostileInput, FrameDecoder) {
  std::vector<Bytes> seeds;
  for (const media::FrameType type : {media::FrameType::I, media::FrameType::P,
                                      media::FrameType::B}) {
    seeds.push_back(av::encode_frame({17, type, 64, TimePoint{1'000}}));
  }
  fuzz(seeds, 5, [](const Bytes& b) { (void)av::decode_frame(b); });
}

/// A "GBAT" batch as the transport frames it: magic, version, flags, u16
/// count, then per entry [pad to 4][u32 length][bytes], little-endian.
Bytes frame_batch(const std::vector<Bytes>& entries) {
  Bytes b{'G', 'B', 'A', 'T', 1, 0, static_cast<std::uint8_t>(entries.size()), 0};
  for (const Bytes& e : entries) {
    b.resize((b.size() + 3) & ~std::size_t{3});
    const std::size_t at = b.size();
    b.resize(at + 4);
    put_u32_le(b, at, static_cast<std::uint32_t>(e.size()));
    b.insert(b.end(), e.begin(), e.end());
  }
  return b;
}

// The batch demux is reached the way the wire reaches it: a single-fragment
// packet into GiopTransport, whose handler decodes every unpacked entry.
TEST(HostileInput, GiopTransportBatchDemux) {
  sim::Engine engine;
  net::Network net(engine);
  const net::NodeId node = net.add_node("host");
  orb::GiopTransport transport(net, node);
  orb::GiopMessage scratch;
  const std::vector<std::uint8_t>* wire = nullptr;
  std::uint64_t views = 0;
  transport.set_message_handler([&](net::NodeId, const orb::MessageView& m) {
    ++views;
    ASSERT_NE(wire, nullptr);
    ASSERT_GE(m.data(), wire->data());
    ASSERT_LE(m.data() + m.size(), wire->data() + wire->size());
    try {
      decode_giop(scratch, m.bytes());
    } catch (const orb::MarshalError&) {
    }
  });
  const std::vector<Bytes> giop = giop_seeds();
  const std::vector<Bytes> seeds{frame_batch(giop), frame_batch({giop[0], giop[3]}),
                                 frame_batch({}), giop[1]};
  std::uint64_t message_id = 0;
  fuzz(seeds, 6, [&](const Bytes& b) {
    auto buf = std::make_shared<const std::vector<std::uint8_t>>(b);
    wire = buf.get();
    net::Packet p;
    p.dst = node;
    p.size_bytes = static_cast<std::uint32_t>(b.size()) + 40;
    p.payload = orb::GiopFragment{++message_id, 0, 1, 0,
                                  static_cast<std::uint32_t>(b.size()), std::move(buf)};
    net.send(node, std::move(p));
    engine.run();
  });
  EXPECT_GT(views, static_cast<std::uint64_t>(kMutants));
}

// --- control-plane servants ----------------------------------------------------

/// A request body as the real client encodes it, captured by a servant.
struct Captured {
  std::string operation;
  Bytes body;
};

/// Drives `send` against a recording servant and returns what arrived.
template <typename Send>
std::vector<Captured> capture(core::AtrTestbed& bed, const char* object_id, Send&& send) {
  std::vector<Captured> out;
  orb::Poa& poa = bed.server_orb.create_poa(std::string("rec_") + object_id);
  const orb::ObjectRef ref = poa.activate_object(
      object_id, std::make_shared<orb::FunctionServant>(
                     microseconds(1), [&out](orb::ServerRequest& req) {
                       out.push_back({req.operation, req.body});
                       req.reply_body = core::encode_status_reply({});
                     }));
  send(ref);
  bed.engine.run();
  poa.deactivate_object(object_id);
  return out;
}

/// Fuzzes `servant` with mutants of each captured request body, under its
/// own operation; `check_reply` must accept whatever the servant answers.
template <typename CheckReply>
void fuzz_servant(orb::Servant& servant, const std::vector<Captured>& requests,
                  std::uint64_t rng_seed, CheckReply&& check_reply) {
  ASSERT_FALSE(requests.empty());
  for (const Captured& c : requests) {
    fuzz({c.body}, rng_seed++, [&](const Bytes& b) {
      orb::ServerRequest req;
      req.operation = c.operation;
      req.body = b;
      servant.handle(req);
      EXPECT_NO_THROW(check_reply(c.operation, req.reply_body)) << c.operation;
    });
  }
  orb::ServerRequest unknown;
  unknown.operation = "no_such_operation";
  EXPECT_THROW(servant.handle(unknown), orb::BadParam);
}

TEST(HostileInput, CpuReservationManagerRequests) {
  core::AtrTestbed bed(core::AtrTestbedParams{});
  const auto requests = capture(bed, core::kCpuReserveManagerObjectId,
                                [&](const orb::ObjectRef& ref) {
    core::CpuReservationClient client(bed.client_orb, ref);
    const os::ReserveSpec spec{milliseconds(5), milliseconds(50), true};
    client.create_reserve(spec, nullptr);
    client.update_reserve(1, spec, nullptr);
    client.destroy_reserve(1);
  });
  ASSERT_EQ(requests.size(), 3u);

  orb::Poa& poa = bed.server_orb.create_poa("mgmt");
  const core::CpuReservationManagerServer manager(poa, bed.server_cpu);
  fuzz_servant(*poa.find(core::kCpuReserveManagerObjectId), requests, 20,
               [](const std::string& op, const Bytes& reply) {
                 if (op != core::kCreateReserveOp) {
                   (void)core::decode_status_reply(reply);  // destroy answers `true`
                   return;
                 }
                 orb::CdrReader r(reply);
                 if (r.read_bool()) {
                   (void)r.read_u64();
                 } else {
                   (void)r.read_string();
                 }
               });
  EXPECT_LE(bed.server_cpu.reserved_utilization(), 1.0);
}

TEST(HostileInput, QosControlPlaneRequests) {
  core::AtrTestbed bed(core::AtrTestbedParams{});
  const auto requests = capture(bed, core::kQosControlObjectId,
                                [&](const orb::ObjectRef& ref) {
    core::QosControlClient client(bed.client_orb, ref);
    core::PolicyOverride ov;
    ov.priority = 30'000;
    ov.dscp = net::dscp::kEf;
    ov.deadline = milliseconds(5);
    ov.server_cpu_reserve = os::ReserveSpec{milliseconds(10), milliseconds(100), true};
    ov.network_reservation = net::FlowSpec{1.5e6, 32'000};
    ov.oneway_batching = orb::BatchPolicy{8 * 1024, 16, microseconds(250)};
    client.override_flow(3, ov);
    client.override_flow(3, core::PolicyOverride{});
    client.clear_override(3);
  });
  ASSERT_EQ(requests.size(), 3u);

  orb::Poa& poa = bed.server_orb.create_poa("ctrl");
  core::QosControlPlane plane(poa);
  fuzz_servant(*poa.find(core::kQosControlObjectId), requests, 30,
               [](const std::string&, const Bytes& reply) {
                 (void)core::decode_status_reply(reply);
               });
  EXPECT_EQ(plane.overrides_applied(), 0u);
}

}  // namespace
}  // namespace aqm
