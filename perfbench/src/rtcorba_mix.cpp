// rtcorba_mix: RT-CORBA priorities end to end (orb + os + imgproc).
//
// On the Figs. 4-6 testbed (sender -> router -> receiver, 10 Mbps DiffServ
// bottleneck with bursty best-effort cross traffic, a LoadGenerator on the
// receiver CPU) the sender runs:
//  * closed-loop twoway callers, each bound through a QoSSession that maps
//    its CORBA priority to thread priorities and a banded DSCP and stamps a
//    deadline. High-priority callers are protected; low-priority callers
//    sit below the CPU load with tight deadlines and retries, so some of
//    their calls time out.
//  * one closed-loop ATR caller whose servant runs a real edge kernel
//    (img::run_edge) and then its simulated cost under a CPU reserve;
//  * one open-loop oneway stream coalesced by GIOP batching.
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "common/rng.hpp"
#include "core/qos_policy.hpp"
#include "core/qos_session.hpp"
#include "core/testbed.hpp"
#include "imgproc/edge.hpp"
#include "imgproc/image.hpp"
#include "orb/orb.hpp"
#include "orb/servant.hpp"
#include "os/load_generator.hpp"

namespace perfbench {

using namespace aqm;

namespace {

constexpr orb::CorbaPriority kHighPriority = 30'000;  // EF band, native ~233
constexpr orb::CorbaPriority kAtrPriority = 28'000;   // EF band
constexpr orb::CorbaPriority kStreamPriority = 24'000;  // AF41 band
constexpr orb::CorbaPriority kLowPriority = 2'000;    // BE band, native ~15
constexpr os::Priority kLoadPriority = 128;           // between the two
constexpr net::FlowId kFirstCallerFlow = 500;
constexpr net::FlowId kStreamFlow = 700;
// Small enough that the real edge kernel stays a minority of the host time
// next to the ORB and CPU-scheduler work this workload is for.
constexpr int kImageSide = 16;
constexpr std::size_t kStreamBytes = 192;

struct MixParams {
  int high_callers;
  int low_callers;
  Duration traffic;
};

struct Caller {
  Caller(orb::OrbEndpoint& orb, const orb::ObjectRef& ref) : stub(orb, ref), session(orb, stub) {}
  orb::ObjectStub stub;
  core::QoSSession session;
  int index = 0;
  bool protected_calls = false;
  bool atr = false;
  Duration think{};
  Duration timeout{};
  Rng rng;
  std::uint64_t calls = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t timeouts = 0;
};

std::vector<std::uint8_t> with_id(std::uint64_t id, std::size_t payload) {
  std::vector<std::uint8_t> body(sizeof id + payload, 0);
  std::memcpy(body.data(), &id, sizeof id);
  return body;
}

std::uint64_t id_of(const std::vector<std::uint8_t>& body) {
  std::uint64_t id = 0;
  if (body.size() >= sizeof id) std::memcpy(&id, body.data(), sizeof id);
  return id;
}

}  // namespace

IterationResult run_rtcorba_mix(const RunOptions& opt) {
  const MixParams P = opt.scale == Scale::Tiny ? MixParams{2, 2, seconds(1)}
                                               : MixParams{4, 4, seconds(40)};
  SpanRecorder* const spans = opt.spans;
  IterationResult r;
  const std::int64_t t_setup = host_ns();
  const TimePoint traffic_end = TimePoint::zero() + P.traffic;

  core::PriorityTestbedParams params;
  params.diffserv_bottleneck = true;
  params.cross_rate_bps = 4e6;
  params.cross_seed = derive_seed(opt.seed, 1);
  std::unique_ptr<core::PriorityTestbed> bed_owner;
  std::deque<Caller> callers;
  std::unique_ptr<orb::ObjectStub> stream_stub;
  std::unique_ptr<core::QoSSession> stream_session;
  Rng stream_rng;
  std::function<void()> stream_next;
  std::unique_ptr<os::LoadGenerator> load;
  std::uint64_t stream_sent = 0;
  std::uint64_t stream_received = 0;
  std::uint64_t images = 0;
  std::vector<std::uint8_t> image_bytes(static_cast<std::size_t>(kImageSide * kImageSide));
  os::ReserveId atr_reserve = os::kNoReserve;
  std::function<void(Caller&)> invoke_next;

  {
    Scoped s(spans, "core.testbed");
    bed_owner = std::make_unique<core::PriorityTestbed>(params);
  }
  core::PriorityTestbed& bed = *bed_owner;
  sim::Engine& engine = bed.engine;
  {
    Scoped setup_span(spans, "bench.setup");

    // --- receiver: servants in two RT POAs -----------------------------------
    orb::PoaPolicies rt_policies;
    rt_policies.lanes = {{0, 2, 64}, {20'000, 2, 64}};
    orb::Poa& rt_poa = bed.receiver_orb.create_poa("rt", rt_policies);
    // QoS policies bind per target object, so every caller gets its own
    // object id on the shared servant.
    const auto work = std::make_shared<orb::FunctionServant>(
        microseconds(400), [spans](orb::ServerRequest& req) {
          Scoped s(spans, "bench.servant", id_of(req.body));
          req.reply_body.assign(req.body.begin(), req.body.begin() + 8);
        });
    const orb::ObjectRef stream_ref = rt_poa.activate_object(
        "stream", std::make_shared<orb::FunctionServant>(
                      microseconds(50), [&, spans](orb::ServerRequest& req) {
                        Scoped s(spans, "bench.servant", id_of(req.body));
                        ++stream_received;
                        r.check(req.client_send_time.has_value(),
                                "orb: request without a send timestamp");
                        r.latency_ns.push_back(
                            (engine.now() - req.client_send_time.value_or(engine.now())).ns());
                      }));

    {
      Scoped s(spans, "os.reserve");
      const auto res = bed.receiver_cpu.create_reserve(
          os::ReserveSpec{milliseconds(12), milliseconds(50), false});
      if (res) atr_reserve = res.value();
      r.check(res.ok(), "os: ATR CPU reserve was not admitted");
    }
    orb::PoaPolicies atr_policies;
    atr_policies.lanes = {{0, 1, 16}};
    orb::Poa& atr_poa = bed.receiver_orb.create_poa("atr", atr_policies);
    const os::Priority atr_native = bed.receiver_orb.priority_mappings().to_native(kAtrPriority);
    const orb::ObjectRef atr_ref = atr_poa.activate_object(
        "edge", std::make_shared<orb::FunctionServant>(
                    microseconds(200), [&, spans, atr_native](orb::ServerRequest& req) {
                      const std::uint64_t id = id_of(req.body);
                      Scoped s(spans, "bench.servant", id);
                      const auto algo = static_cast<img::EdgeAlgorithm>(req.body[8]);
                      img::GrayImage in(kImageSide, kImageSide);
                      std::memcpy(in.data().data(), req.body.data() + 9, in.pixel_count());
                      img::GrayImage out;
                      {
                        Scoped e(spans, "imgproc.edge", id);
                        out = img::run_edge(algo, in);
                      }
                      std::uint64_t sum = 0;
                      for (const std::uint8_t px : out.data()) sum = sum * 31 + px;
                      ++images;
                      r.digest.add(sum);
                      auto reply = req.defer();
                      Scoped o(spans, "os.submit", id);
                      bed.receiver_cpu.submit_for(
                          img::estimated_cost(algo, in.pixel_count(), bed.receiver_cpu.hz()),
                          atr_native,
                          [reply = std::move(reply), id] { reply(with_id(id, 0)); },
                          atr_reserve);
                    }));

    // --- sender: callers bound through QoSSessions ---------------------------
    Rng seeder(derive_seed(opt.seed, 2));
    const auto add_caller = [&](const orb::ObjectRef& ref, orb::CorbaPriority prio,
                                bool is_protected, bool atr, Duration think,
                                Duration deadline, Duration timeout, int attempts) {
      Caller& c = callers.emplace_back(bed.sender_orb, ref);
      c.index = static_cast<int>(callers.size());
      c.protected_calls = is_protected;
      c.atr = atr;
      c.think = think;
      c.timeout = timeout;
      c.rng = Rng(seeder.next_u64());
      c.stub.set_retry(orb::RetryPolicy{attempts, milliseconds(5), 2.0});
      core::EndToEndQosPolicy policy;
      policy.flow = kFirstCallerFlow + static_cast<net::FlowId>(c.index);
      policy.priority = prio;
      policy.map_priority_to_dscp = true;
      policy.deadline = deadline;
      Scoped s(spans, "core.apply", static_cast<std::uint64_t>(c.index));
      c.session.apply(policy);
    };
    const auto work_ref = [&] {
      return rt_poa.activate_object("work" + std::to_string(callers.size() + 1), work);
    };
    for (int i = 0; i < P.high_callers; ++i) {
      add_caller(work_ref(), kHighPriority, true, false, milliseconds(8), milliseconds(250),
                 milliseconds(500), 1);
    }
    for (int i = 0; i < P.low_callers; ++i) {
      add_caller(work_ref(), kLowPriority, false, false, milliseconds(4), milliseconds(30),
                 milliseconds(30), 2);
    }
    add_caller(atr_ref, kAtrPriority, true, true, milliseconds(20), milliseconds(400),
               milliseconds(800), 1);

    invoke_next = [&, spans](Caller& c) {
      const std::uint64_t id = (static_cast<std::uint64_t>(c.index) << 32) | ++c.calls;
      std::vector<std::uint8_t> body = with_id(id, c.atr ? 1 + image_bytes.size() : 64);
      if (c.atr) {
        body[8] = static_cast<std::uint8_t>(c.calls % 3);  // Kirsch, Prewitt, Sobel
        for (std::uint8_t& px : image_bytes) px = static_cast<std::uint8_t>(c.rng.next_u64());
        std::memcpy(body.data() + 9, image_bytes.data(), image_bytes.size());
      }
      const TimePoint sent = bed.engine.now();
      Scoped s(spans, "orb.invoke", id);
      c.stub.twoway(
          c.atr ? "process" : "work", std::move(body),
          [&, &c = c, id, sent, spans](orb::CompletionStatus st, std::vector<std::uint8_t>) {
            Scoped s(spans, "bench.reply", id);
            if (st == orb::CompletionStatus::Ok) {
              ++c.ok;
              if (c.protected_calls) r.latency_ns.push_back((bed.engine.now() - sent).ns());
            } else if (st == orb::CompletionStatus::Timeout) {
              ++c.timeouts;
            } else {
              ++c.errors;
            }
            if (bed.engine.now() >= traffic_end) return;
            const Duration think{static_cast<std::int64_t>(
                c.rng.exponential(static_cast<double>(c.think.ns())))};
            bed.engine.after(think, [&] { invoke_next(c); });
          },
          c.timeout);
    };
    for (Caller& c : callers) {
      const Duration start{c.rng.uniform_int(0, milliseconds(5).ns())};
      engine.at(TimePoint::zero() + start, [&] { invoke_next(c); });
    }

    // Open-loop oneway stream with GIOP batching: Poisson arrivals at 1000
    // messages/s. Random gaps spread each message's wait for its batch's
    // flush evenly, so the latency percentiles do not sit on the steps a
    // fixed 1 ms period makes.
    stream_stub = std::make_unique<orb::ObjectStub>(bed.sender_orb, stream_ref);
    stream_session = std::make_unique<core::QoSSession>(bed.sender_orb, *stream_stub);
    {
      core::EndToEndQosPolicy policy;
      policy.flow = kStreamFlow;
      policy.priority = kStreamPriority;
      policy.map_priority_to_dscp = true;
      policy.oneway_batching = core::OnewayBatchingPolicy{4 * 1024, 8, milliseconds(2)};
      Scoped s(spans, "core.apply", kStreamFlow);
      stream_session->apply(policy);
    }
    stream_rng = Rng(seeder.next_u64());
    const auto stream_gap = [&] {
      return Duration{static_cast<std::int64_t>(
          stream_rng.exponential(static_cast<double>(milliseconds(1).ns())))};
    };
    stream_next = [&, spans, stream_gap] {
      if (engine.now() >= traffic_end) return;
      const std::uint64_t id = (std::uint64_t{0xFFFF} << 32) | ++stream_sent;
      {
        Scoped s(spans, "orb.invoke", id);
        stream_stub->oneway("frame", with_id(id, kStreamBytes));
      }
      engine.after(stream_gap(), [&] { stream_next(); });
    };
    engine.at(TimePoint::zero() + stream_gap(), [&] { stream_next(); });

    os::LoadGenerator::Config lc;
    lc.priority = kLoadPriority;
    lc.burst_mean = milliseconds(12);
    lc.interval_mean = milliseconds(25);
    load = std::make_unique<os::LoadGenerator>(engine, bed.receiver_cpu, lc,
                                               derive_seed(opt.seed, 3));
    load->start();
    bed.cross_traffic->start();
    engine.at(traffic_end, [&] {
      load->stop();
      bed.cross_traffic->stop();
    });
  }
  r.setup_s = static_cast<double>(host_ns() - t_setup) / 1e9;

  const std::int64_t t_run = host_ns();
  drain(engine, milliseconds(10), traffic_end + seconds(60), spans, r);
  r.run_s = static_cast<double>(host_ns() - t_run) / 1e9;
  r.events = engine.executed();

  // --- harvest and checks ---------------------------------------------------
  std::uint64_t made = 0;
  std::uint64_t completed = 0;
  for (const Caller& c : callers) {
    made += c.calls;
    completed += c.ok + c.errors + c.timeouts;
    if (c.protected_calls) {
      r.attempted += c.calls;
      r.delivered += c.ok;
    } else {
      r.other_attempted += c.calls;
      r.other_failed += c.calls - c.ok;
    }
    for (const std::uint64_t v : {c.calls, c.ok, c.errors, c.timeouts}) r.digest.add(v);
  }
  r.attempted += stream_sent;
  r.delivered += stream_received;
  r.check(made == completed, "orb: a twoway call did not complete exactly once");
  r.check(r.latency_ns.size() == r.delivered, "latency samples != protected deliveries");

  std::uint64_t flows = 0;
  for (const net::FlowId f : {kStreamFlow, core::kFlowCross}) {
    flows += bed.network.flow(f).sent > 0;
  }
  for (const Caller& c : callers) {
    flows += bed.network.flow(kFirstCallerFlow + static_cast<net::FlowId>(c.index)).sent > 0;
  }
  record_net(r, bed.network,
             links_among(bed.network, {bed.sender_node, bed.router_node, bed.receiver_node,
                                       bed.cross_node}),
             bed.network.link_between(bed.router_node, bed.receiver_node)->queue(), flows);
  record_orb(r, bed.sender_orb, bed.receiver_orb, stream_sent);
  record_os(r, bed.receiver_cpu, bed.sender_cpu, params.cpu.reserve_utilization_cap);
  for (const std::uint64_t v : {stream_sent, stream_received, images, r.events}) r.digest.add(v);
  for (const std::int64_t ns : r.latency_ns) r.digest.add_signed(ns);
  r.counts["imgproc.images"] = static_cast<double>(images);
  return r;
}

}  // namespace perfbench
