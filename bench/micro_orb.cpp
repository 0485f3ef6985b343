// Micro-benchmarks of the ORB data path (google-benchmark): CDR
// marshaling, GIOP encode/decode, frame codec, POA demultiplexing scaling
// — the TAO-style optimizations Section 2.1 of the paper leans on.
#include <benchmark/benchmark.h>

#include <memory>

#include "avstreams/frame_codec.hpp"
#include "common/json_report.hpp"
#include "orb/buffer_pool.hpp"
#include "orb/cdr.hpp"
#include "orb/giop.hpp"
#include "orb/transport.hpp"
#include "orb/poa.hpp"
#include "orb/orb.hpp"
#include "core/qos_control_plane.hpp"
#include "core/qos_policy.hpp"
#include "core/qos_session.hpp"
#include "net/network.hpp"
#include "os/cpu.hpp"
#include "quo/contract.hpp"
#include "quo/syscond.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aqm;

void BM_CdrWritePrimitives(benchmark::State& state) {
  for (auto _ : state) {
    orb::CdrWriter w;
    for (int i = 0; i < 64; ++i) {
      w.write_u32(static_cast<std::uint32_t>(i));
      w.write_u64(static_cast<std::uint64_t>(i) * 7);
      w.write_u8(static_cast<std::uint8_t>(i));
    }
    benchmark::DoNotOptimize(w.buffer().data());
  }
  state.SetItemsProcessed(state.iterations() * 192);
}
BENCHMARK(BM_CdrWritePrimitives);

void BM_CdrReadPrimitives(benchmark::State& state) {
  orb::CdrWriter w;
  for (int i = 0; i < 64; ++i) {
    w.write_u32(static_cast<std::uint32_t>(i));
    w.write_u64(static_cast<std::uint64_t>(i) * 7);
    w.write_u8(static_cast<std::uint8_t>(i));
  }
  for (auto _ : state) {
    orb::CdrReader r(w.buffer());
    std::uint64_t sum = 0;
    for (int i = 0; i < 64; ++i) {
      sum += r.read_u32();
      sum += r.read_u64();
      sum += r.read_u8();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 192);
}
BENCHMARK(BM_CdrReadPrimitives);

void BM_GiopEncodeRequest(benchmark::State& state) {
  const std::vector<std::uint8_t> body(static_cast<std::size_t>(state.range(0)));
  orb::RequestHeader header;
  header.request_id = 1;
  header.object_key = "video/receiver";
  header.operation = "push_frame";
  header.contexts.push_back(orb::make_priority_context(20'000));
  header.contexts.push_back(orb::make_timestamp_context(TimePoint{123}));
  for (auto _ : state) {
    auto bytes = orb::encode_request(header, body);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(body.size()));
}
BENCHMARK(BM_GiopEncodeRequest)->Arg(128)->Arg(1400)->Arg(13'600);

void BM_GiopDecodeRequest(benchmark::State& state) {
  const std::vector<std::uint8_t> body(static_cast<std::size_t>(state.range(0)));
  orb::RequestHeader header;
  header.request_id = 1;
  header.object_key = "video/receiver";
  header.operation = "push_frame";
  header.contexts.push_back(orb::make_priority_context(20'000));
  const auto bytes = orb::encode_request(header, body);
  for (auto _ : state) {
    const auto msg = orb::decode(bytes);
    benchmark::DoNotOptimize(msg.request.request_id);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_GiopDecodeRequest)->Arg(128)->Arg(1400)->Arg(13'600);

void BM_FrameCodecRoundTrip(benchmark::State& state) {
  media::VideoFrame f;
  f.index = 7;
  f.type = media::FrameType::I;
  f.size_bytes = 13'600;
  for (auto _ : state) {
    const auto body = av::encode_frame(f);
    const auto out = av::decode_frame(body);
    benchmark::DoNotOptimize(out.index);
  }
  state.SetBytesProcessed(state.iterations() * 13'600);
}
BENCHMARK(BM_FrameCodecRoundTrip);

/// Active-demultiplexing claim: POA servant lookup stays O(1) in the
/// number of registered servants.
void BM_PoaDemux(benchmark::State& state) {
  sim::Engine engine;
  net::Network net(engine);
  const auto node = net.add_node("host");
  os::Cpu cpu(engine, "cpu");
  orb::OrbEndpoint orb_endpoint(net, node, cpu);
  orb::Poa& poa = orb_endpoint.create_poa("app");
  const auto n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    poa.activate_object("servant" + std::to_string(i),
                        std::make_shared<orb::FunctionServant>(
                            microseconds(1), [](orb::ServerRequest&) {}));
  }
  const std::string target = "servant" + std::to_string(n / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(poa.find(target));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoaDemux)->Arg(10)->Arg(100)->Arg(1000)->Arg(10'000);

/// Full oneway invocation path (marshal -> transport -> demux -> dispatch
/// -> servant) through the ORB's own RT-CORBA stages, drained to
/// completion each iteration. `scripts/run_bench.sh` gates it at 3% of its
/// recorded baseline. The name and the Arg(0) suffix are kept so the row
/// stays comparable with its baseline.
void BM_InterceptorOverhead(benchmark::State& state) {
  sim::Engine engine;
  net::Network net(engine);
  const auto a = net.add_node("client");
  const auto b = net.add_node("server");
  net::LinkConfig link;
  link.bandwidth_bps = 1e9;
  net.add_duplex_link(a, b, link);
  os::Cpu client_cpu(engine, "client-cpu");
  os::Cpu server_cpu(engine, "server-cpu");
  orb::OrbEndpoint client(net, a, client_cpu);
  orb::OrbEndpoint server(net, b, server_cpu);
  orb::Poa& poa = server.create_poa("app");
  std::uint64_t handled = 0;
  const orb::ObjectRef ref = poa.activate_object(
      "sink", std::make_shared<orb::FunctionServant>(
                  microseconds(1), [&handled](orb::ServerRequest&) { ++handled; }));
  const std::vector<std::uint8_t> body(512);
  orb::InvokeOptions opts;
  opts.oneway = true;
  for (auto _ : state) {
    client.invoke(ref, "op", body, opts);
    engine.run();
  }
  benchmark::DoNotOptimize(handled);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterceptorOverhead)->Arg(0);

/// AMI-style pipelined calls over the batched GIOP transport (DESIGN.md
/// §11): a 128-call window is submitted per iteration and rides one
/// staging pass (shared per-packet overhead, one fragmentation run). The
/// client stub uses a pre-marshaled request template — the header shape is
/// fixed per (object, operation), so each call copies the template and
/// patches the request id, TAO-compiled-stub style. The server fully
/// decodes each request into a warm scratch message and answers through
/// its own reply batch with a void-return completion; the client demuxes
/// completions from zero-copy views by peeking the reply header's request
/// id — no per-reply copy or full decode. One item per completed call.
/// scripts/run_bench.sh holds the small-body point to >= 3x
/// BM_GiopRoundTrip calls/s measured in the same run: the per-message
/// marshal/overhead wall the batching tentpole amortizes.
void BM_GiopPipelined(benchmark::State& state) {
  constexpr std::uint32_t kWindow = 128;
  sim::Engine engine;
  net::Network net(engine);
  const auto a = net.add_node("client");
  const auto b = net.add_node("server");
  net::LinkConfig link;
  link.bandwidth_bps = 1e9;
  net.add_duplex_link(a, b, link);
  orb::TransportConfig cfg;
  cfg.mtu = 64 * 1024;
  orb::GiopTransport client(net, a, cfg);
  orb::GiopTransport server(net, b, cfg);
  orb::BatchPolicy batching;
  batching.max_messages = kWindow;  // the submit window flushes itself
  client.set_flow_batching(1, batching);  // requests
  server.set_flow_batching(2, batching);  // replies
  orb::CdrBufferPool client_pool;
  orb::CdrBufferPool server_pool;
  orb::GiopMessage scratch;
  orb::RequestHeader req{
      .request_id = 0, .response_expected = true, .object_key = "sink", .operation = "op",
      .contexts = {}};
  orb::ReplyHeader rep;
  const std::vector<std::uint8_t> body(static_cast<std::size_t>(state.range(0)));

  server.set_message_handler([&](net::NodeId src, const orb::MessageView& m) {
    orb::decode_into(scratch, m.bytes());
    rep.request_id = scratch.request.request_id;
    auto buf = server_pool.acquire();
    // Void-return completion: the reply carries the id + status the client
    // demuxes on, no result payload (the CORBA "ping" shape).
    orb::encode_reply(rep, {}, *buf);
    server_pool.note_message_size(buf->size());
    server.send_message(src, orb::CdrBufferPool::freeze(std::move(buf)),
                        net::dscp::kBestEffort, 2);
  });
  std::uint64_t completed = 0;
  std::uint64_t completed_ids = 0;
  client.set_message_handler([&](net::NodeId, const orb::MessageView& m) {
    // Reply header layout: GIOP header (12 B), then request_id u32 LE.
    const std::uint8_t* d = m.data();
    completed_ids += d[12] | (static_cast<std::uint32_t>(d[13]) << 8) |
                     (static_cast<std::uint32_t>(d[14]) << 16) |
                     (static_cast<std::uint32_t>(d[15]) << 24);
    ++completed;
  });

  // The stub's request template: marshaled once, copied + id-patched per
  // call. request_id sits at bytes 12-15 (u32 LE right after the header).
  std::vector<std::uint8_t> templ;
  orb::encode_request(req, body, templ);
  client_pool.note_message_size(templ.size());

  std::uint32_t next_id = 1;
  std::uint64_t issued_ids = 0;
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < kWindow; ++i) {
      const std::uint32_t id = next_id++;
      issued_ids += id;
      auto buf = client_pool.acquire();
      buf->assign(templ.begin(), templ.end());
      (*buf)[12] = static_cast<std::uint8_t>(id);
      (*buf)[13] = static_cast<std::uint8_t>(id >> 8);
      (*buf)[14] = static_cast<std::uint8_t>(id >> 16);
      (*buf)[15] = static_cast<std::uint8_t>(id >> 24);
      client.send_message(b, orb::CdrBufferPool::freeze(std::move(buf)),
                          net::dscp::kBestEffort, 1);
    }
    client.flush_all();  // submit/flush pipeline boundary (usually a no-op:
                         // the window hits the count threshold)
    engine.run();
  }
  if (completed != static_cast<std::uint64_t>(state.iterations()) * kWindow ||
      completed_ids != issued_ids) {
    state.SkipWithError("pipelined completions diverged from submissions");
  }
  state.SetItemsProcessed(state.iterations() * kWindow);
}
BENCHMARK(BM_GiopPipelined)->Arg(64)->Arg(1024);

/// Oneway fan-out over the batched transport: 64 oneway requests per
/// iteration coalesce into one wire write; the server decodes each entry
/// from its zero-copy view. The no-reply upper bound of the batching path.
void BM_GiopBatchedOneway(benchmark::State& state) {
  constexpr std::uint32_t kWindow = 64;
  sim::Engine engine;
  net::Network net(engine);
  const auto a = net.add_node("client");
  const auto b = net.add_node("server");
  net::LinkConfig link;
  link.bandwidth_bps = 1e9;
  net.add_duplex_link(a, b, link);
  orb::TransportConfig cfg;
  cfg.mtu = 64 * 1024;
  orb::GiopTransport client(net, a, cfg);
  orb::GiopTransport server(net, b, cfg);
  orb::BatchPolicy batching;
  batching.max_messages = kWindow;
  client.set_flow_batching(1, batching);
  orb::CdrBufferPool pool;
  orb::GiopMessage scratch;
  orb::RequestHeader req{
      .response_expected = false, .object_key = "sink", .operation = "op", .contexts = {}};
  const std::vector<std::uint8_t> body(static_cast<std::size_t>(state.range(0)));
  std::uint64_t handled = 0;
  server.set_message_handler([&](net::NodeId, const orb::MessageView& m) {
    orb::decode_into(scratch, m.bytes());
    ++handled;
  });
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < kWindow; ++i) {
      req.request_id = static_cast<std::uint32_t>(handled + i + 1);
      auto buf = pool.acquire();
      orb::encode_request(req, body, *buf);
      pool.note_message_size(buf->size());
      client.send_message(b, orb::CdrBufferPool::freeze(std::move(buf)),
                          net::dscp::kBestEffort, 1);
    }
    engine.run();
  }
  benchmark::DoNotOptimize(handled);
  state.SetItemsProcessed(state.iterations() * kWindow);
}
BENCHMARK(BM_GiopBatchedOneway)->Arg(64)->Arg(1024);

/// Live policy re-stamp cost (DESIGN.md §13): QoSSession::apply diffing a
/// changed priority/deadline against the active policy and writing them
/// onto the stub.
/// Arg(0): the direct session path. Arg(1): the same re-stamp driven
/// through QosControlPlane::override_flow (merge + managed-slot
/// bookkeeping on top). Both are synchronous and allocation-free in
/// steady state — this prices the per-update arithmetic the
/// FeedbackScheduler and override channel pay every actuation.
void BM_PolicyUpdate(benchmark::State& state) {
  const bool via_plane = state.range(0) != 0;
  sim::Engine engine;
  net::Network net(engine);
  const auto a = net.add_node("client");
  const auto b = net.add_node("server");
  net::LinkConfig link;
  link.bandwidth_bps = 1e9;
  net.add_duplex_link(a, b, link);
  os::Cpu client_cpu(engine, "client-cpu");
  os::Cpu server_cpu(engine, "server-cpu");
  orb::OrbEndpoint client(net, a, client_cpu);
  orb::OrbEndpoint server(net, b, server_cpu);
  orb::Poa& poa = server.create_poa("app");
  const orb::ObjectRef ref = poa.activate_object(
      "sink", std::make_shared<orb::FunctionServant>(microseconds(1),
                                                     [](orb::ServerRequest&) {}));
  orb::ObjectStub stub(client, ref);
  stub.set_flow(42);
  core::QoSSession session(client, stub);
  core::EndToEndQosPolicy policy;
  policy.flow = 42;
  policy.priority = 10'000;
  policy.deadline = milliseconds(20);
  session.apply(policy);
  orb::Poa& ctrl_poa = client.create_poa("ctrl");
  core::QosControlPlane plane(ctrl_poa);
  plane.manage(42, session);
  core::PolicyOverride ov;
  std::uint32_t i = 0;
  for (auto _ : state) {
    const auto priority = static_cast<orb::CorbaPriority>(10'000 + (i & 1) * 5'000);
    if (via_plane) {
      ov.priority = priority;
      ov.deadline = milliseconds(5 + (i % 3));
      benchmark::DoNotOptimize(plane.override_flow(42, ov).ok());
    } else {
      policy.priority = priority;
      policy.deadline = milliseconds(5 + (i % 3));
      session.apply(policy);
    }
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyUpdate)->Arg(0)->Arg(1);

void BM_ContractEval(benchmark::State& state) {
  sim::Engine engine;
  quo::ValueSysCond bw("bw", 10.0);
  quo::Contract contract(engine, "bench");
  contract.add_region("high", [&] { return bw.value() >= 8.0; })
      .add_region("medium", [&] { return bw.value() >= 4.0; })
      .add_region("low", nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(contract.eval());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContractEval);

}  // namespace

int main(int argc, char** argv) {
  return aqm::bench::run_with_json_report(argc, argv, "orb");
}
