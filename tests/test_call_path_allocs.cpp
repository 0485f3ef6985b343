// Zero-allocation steady state of the RT-CORBA call path and the packet
// FIFOs (DESIGN.md §8–§10).
//
// Each test warms a scenario up, then counts global operator new over a
// window of 10 000 operations of one kind. Request bodies are built before
// the window, and every callback the test hands the library captures at
// most 16 bytes, so whatever the window counts is the library's own:
//  * twoway calls through an RT thread-pool lane over a DiffServ link,
//    traced, with priority, timestamp and deadline service contexts, some
//    with a retry policy, while the server CPU runs a hard reserve next to
//    a LoadGenerator. The only allocation the public API forces is the
//    non-empty reply body handed to ResponseCallback by value: exactly one
//    per such call, none with empty replies;
//  * oneways on an RSVP-admitted IntServ flow with telemetry attached and
//    the flight ring as the engine tracer;
//  * a many-host burst through DropTail and IntServ egresses (city fan-in
//    at small scale), which also pins the packet arena's size to the peak
//    number of packets queued at once.
//
// The allocator counts bytes as well as calls, which budgets the per-flow
// table: city_fanin's 131 072 dense flow ids must cost at most 48 bytes of
// heap each, every byte allocated on the way counted (growth included).
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/qos_policy.hpp"
#include "core/qos_session.hpp"
#include "core/testbed.hpp"
#include "net/flow_table.hpp"
#include "net/network.hpp"
#include "net/packet_fifo.hpp"
#include "net/queue.hpp"
#include "obs/telemetry.hpp"
#include "orb/orb.hpp"
#include "orb/servant.hpp"
#include "sim/engine.hpp"

// --- counting allocator ------------------------------------------------------

namespace {
std::uint64_t g_heap_allocs = 0;
std::uint64_t g_heap_bytes = 0;
}  // namespace

// The plain new/delete pair stays out of line and every other form forwards
// to it: callers then see operator new matched with operator delete, never
// an inlined malloc() meeting a delete (or a new meeting a free()).
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_heap_allocs;
  g_heap_bytes += n;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace aqm {
namespace {

constexpr std::uint64_t kWindow = 10'000;

// --- twoway RT-CORBA calls ----------------------------------------------------

/// Twoway callers on the Figs. 4-6 testbed. Every input is periodic with
/// one 10 ms period — each caller calls every 2.5 ms, the CPU load
/// bursts every 10 ms, the hard reserve replenishes every 10 ms — so after
/// warm-up the simulation repeats itself and no queue, pool or calendar
/// meets a new peak in the window. body[0] selects the servant's answer:
/// kEmpty and kDeferred reply with an empty body (kDeferred through
/// defer() and a job under the reserve), kFull with 8 bytes.
class TwowayCalls {
 public:
  enum Mode : std::uint8_t { kEmpty = 0, kDeferred = 1, kFull = 2 };
  static constexpr std::size_t kCallers = 4;
  static constexpr Duration kPeriod = milliseconds(10);
  static constexpr Duration kGap = microseconds(2'500);

  TwowayCalls() : bed_(params()) {
    // Size the engine's event calendar up front, as a driver would: its
    // near/far lists grow at new peaks of queued entries (live events plus
    // the tombstones Cpu::reschedule leaves when it re-arms an event), and
    // those peaks follow where the calendar's rungs fall, not the call
    // path measured here.
    bed_.engine.reserve(4'096);
    bed_.engine.set_telemetry(&hub_);
    bed_.engine.set_tracer(&hub_.flight());

    const auto reserve = bed_.receiver_cpu.create_reserve(
        os::ReserveSpec{milliseconds(2), kPeriod, /*hard=*/true});
    EXPECT_TRUE(reserve.ok());
    reserve_ = reserve.value();

    orb::PoaPolicies policies;
    policies.lanes = {{0, 2, 64}, {20'000, 2, 64}};
    orb::Poa& poa = bed_.receiver_orb.create_poa("rt", policies);
    const auto servant = std::make_shared<orb::FunctionServant>(
        microseconds(200), [this](orb::ServerRequest& req) { serve(req); });

    // Competing CPU load: a 2 ms burst at priority 128 every period.
    load_ = std::make_unique<sim::PeriodicTimer>(bed_.engine, kPeriod, [this] {
      bed_.receiver_cpu.submit_for(milliseconds(2), 128, nullptr);
    });
    load_->start();

    for (std::size_t i = 0; i < kCallers; ++i) {
      Caller& c = *callers_.emplace_back(std::make_unique<Caller>(
          bed_.sender_orb, poa.activate_object("work" + std::to_string(i), servant)));
      if (i % 2 == 0) c.stub.set_retry(orb::RetryPolicy{3, milliseconds(5), 2.0});
      core::EndToEndQosPolicy policy;
      policy.flow = 500 + i;
      policy.priority = i < 2 ? 30'000 : 2'000;
      policy.map_priority_to_dscp = true;
      policy.deadline = milliseconds(40);
      c.session.apply(policy);
    }
  }

  ~TwowayCalls() {
    bed_.engine.set_tracer(nullptr);
    bed_.engine.set_telemetry(nullptr);
  }

  /// Makes `calls` more calls whose servants answer in one of `modes`
  /// (cycling), with every request body built up front, and runs until
  /// they all completed. Returns the heap allocations made meanwhile.
  std::uint64_t run(std::uint64_t calls, std::vector<Mode> modes) {
    bodies_.clear();
    bodies_.reserve(calls);
    for (std::uint64_t k = 0; k < calls; ++k) {
      bodies_.emplace_back(64, static_cast<std::uint8_t>(modes[k % modes.size()]));
    }
    next_body_ = 0;
    full_replies_ = 0;
    // Start on the period grid, so every run meets the load in one phase.
    const std::int64_t now = bed_.engine.now().ns();
    const TimePoint start{(now / kPeriod.ns() + 2) * kPeriod.ns()};
    const std::uint64_t before = g_heap_allocs;
    for (std::size_t i = 0; i < kCallers; ++i) {
      bed_.engine.at(start + microseconds(625) * static_cast<std::int64_t>(i),
                     [this, i] { tick(i); });
    }
    while (next_body_ < bodies_.size() || in_flight_ > 0) {
      bed_.engine.run_until(bed_.engine.now() + kPeriod);
    }
    bed_.engine.run_until(bed_.engine.now() + kPeriod);
    return g_heap_allocs - before;
  }

  [[nodiscard]] std::uint64_t full_replies() const { return full_replies_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t reserve_jobs() const { return reserve_jobs_; }
  [[nodiscard]] std::uint64_t deferred() const { return deferred_; }

 private:
  struct Caller {
    Caller(orb::OrbEndpoint& orb, const orb::ObjectRef& ref) : stub(orb, ref), session(orb, stub) {}
    orb::ObjectStub stub;
    core::QoSSession session;
  };

  static core::PriorityTestbedParams params() {
    core::PriorityTestbedParams p;
    p.diffserv_bottleneck = true;
    return p;
  }

  void tick(std::size_t i) {
    if (next_body_ == bodies_.size()) return;
    ++in_flight_;
    callers_[i]->stub.twoway(
        "work", std::move(bodies_[next_body_++]),
        [this](orb::CompletionStatus st, std::vector<std::uint8_t> body) {
          --in_flight_;
          if (st != orb::CompletionStatus::Ok) ++failed_;
          if (!body.empty()) ++full_replies_;
        },
        milliseconds(50));
    bed_.engine.after(kGap, [this, i] { tick(i); });
  }

  void serve(orb::ServerRequest& req) {
    // Every request also burns CPU under the hard reserve.
    bed_.receiver_cpu.submit_for(microseconds(50), 200, [this] { ++reserve_jobs_; },
                                 reserve_);
    switch (req.body[0]) {
      case kFull:
        req.reply_body.assign(8, 0x5A);
        break;
      case kDeferred: {
        const std::size_t k = deferred_++ % repliers_.size();
        repliers_[k] = req.defer();
        bed_.receiver_cpu.submit_for(microseconds(100), 200,
                                     [this, k] { std::exchange(repliers_[k], nullptr)({}); },
                                     reserve_);
        break;
      }
      default:
        break;
    }
  }

  core::PriorityTestbed bed_;
  obs::TelemetryHub hub_;
  os::ReserveId reserve_ = os::kNoReserve;
  std::unique_ptr<sim::PeriodicTimer> load_;
  std::vector<std::unique_ptr<Caller>> callers_;
  std::vector<std::vector<std::uint8_t>> bodies_;
  std::array<orb::ServerRequest::Replier, 64> repliers_{};
  std::size_t next_body_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t full_replies_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t reserve_jobs_ = 0;
  std::uint64_t deferred_ = 0;
};

TEST(CallPathAllocs, TwowayCallsWithEmptyRepliesAllocateNothing) {
  TwowayCalls calls;
  const std::vector<TwowayCalls::Mode> modes{TwowayCalls::kEmpty, TwowayCalls::kDeferred};
  calls.run(2'000, modes);  // warm-up
  EXPECT_EQ(calls.run(kWindow, modes), 0u);
  EXPECT_EQ(calls.failed(), 0u);
  EXPECT_EQ(calls.full_replies(), 0u);
  EXPECT_GT(calls.deferred(), kWindow / 2);
  EXPECT_GT(calls.reserve_jobs(), kWindow);
}

TEST(CallPathAllocs, TwowayCallsAllocateOnlyTheReplyBodyHandedToTheCaller) {
  TwowayCalls calls;
  const std::vector<TwowayCalls::Mode> modes{TwowayCalls::kFull};
  calls.run(2'000, modes);  // warm-up
  const std::uint64_t allocs = calls.run(kWindow, modes);
  EXPECT_EQ(calls.full_replies(), kWindow);
  EXPECT_EQ(calls.failed(), 0u);
  // The reply body leaves with the callback's by-value argument, so the
  // receive path decodes the next reply into a fresh buffer: one each.
  EXPECT_EQ(allocs, calls.full_replies());
}

// --- oneways on an RSVP-admitted IntServ flow ----------------------------------

TEST(CallPathAllocs, OnewaysOnAdmittedIntServFlowAllocateNothing) {
  core::ReservationTestbed bed(core::ReservationTestbedParams{});
  obs::TelemetryHub hub;
  bed.engine.set_telemetry(&hub);
  bed.engine.set_tracer(&hub.flight());

  std::uint64_t received = 0;
  orb::Poa& poa = bed.receiver_orb.create_poa("app");
  const orb::ObjectRef ref = poa.activate_object(
      "sink", std::make_shared<orb::FunctionServant>(
                  microseconds(30), [&received](orb::ServerRequest&) { ++received; }));
  orb::ObjectStub stub(bed.sender_orb, ref);
  core::QoSSession session(bed.sender_orb, stub, &bed.qos);
  constexpr net::FlowId kFlow = 1'001;
  core::EndToEndQosPolicy policy;
  policy.flow = kFlow;
  policy.priority = 10'000;
  policy.network_reservation = net::FlowSpec{400e3, 40'000};
  obs::SloSpec slo;
  slo.max_drop_rate = 0.5;
  policy.slo = slo;
  bool admitted = false;
  session.apply(policy, [&admitted](Status<std::string> st) { admitted = st.ok(); });
  bed.engine.run_until(bed.engine.now() + milliseconds(100));
  ASSERT_TRUE(admitted);

  constexpr std::uint64_t kWarmup = 2'000;
  std::vector<std::vector<std::uint8_t>> bodies;
  bodies.reserve(kWarmup + kWindow);
  for (std::uint64_t k = 0; k < kWarmup + kWindow; ++k) bodies.emplace_back(400, 0x11);
  std::size_t next = 0;
  const auto send = [&](std::uint64_t n) {
    for (std::uint64_t k = 0; k < n; ++k) {
      stub.oneway("data", std::move(bodies[next++]));
      // 400-byte messages every 10 ms: 320 kbps, inside the reservation.
      bed.engine.run_until(bed.engine.now() + milliseconds(10));
    }
    bed.engine.run_until(bed.engine.now() + milliseconds(100));
  };
  send(kWarmup);
  const std::uint64_t before = g_heap_allocs;
  send(kWindow);
  EXPECT_EQ(g_heap_allocs - before, 0u);
  EXPECT_EQ(received, kWarmup + kWindow);
  EXPECT_EQ(bed.network.flow(kFlow).delivered, bed.network.flow(kFlow).sent);
  bed.engine.set_tracer(nullptr);
  bed.engine.set_telemetry(nullptr);
}

// --- many-host burst through DropTail and IntServ egresses ----------------------

TEST(CallPathAllocs, CityFanInBurstAllocatesNothingAndPoolTracksPeak) {
  constexpr std::size_t kEdges = 4;
  constexpr std::size_t kHosts = 32;
  constexpr std::size_t kFlowsPerHost = 32;
  constexpr Duration kRound = milliseconds(50);
  sim::Engine engine;
  net::Network net(engine);
  const net::NodeId core = net.add_node("core");
  const net::NodeId sink = net.add_node("sink");
  std::vector<net::NodeId> edges;
  std::vector<net::NodeId> hosts;
  for (std::size_t e = 0; e < kEdges; ++e) edges.push_back(net.add_node("edge" + std::to_string(e)));
  for (std::size_t h = 0; h < kHosts; ++h) hosts.push_back(net.add_node("host" + std::to_string(h)));
  net::LinkConfig host_up;
  host_up.bandwidth_bps = 100e6;
  net::LinkConfig edge_up;
  edge_up.bandwidth_bps = 1e9;
  net::LinkConfig core_up;
  core_up.bandwidth_bps = 150e6;  // bursts of several hosts back the core egress up
  std::size_t fifos = 0;
  std::size_t ring_capacity = 0;  // what per-queue rings sized to capacity would keep
  for (std::size_t h = 0; h < kHosts; ++h) {
    net.add_link(hosts[h], edges[h % kEdges], host_up,
                 std::make_unique<net::DropTailQueue>(2 * kFlowsPerHost));
    fifos += 2;  // queue + in flight
    ring_capacity += 2 * kFlowsPerHost;
  }
  std::vector<net::IntServQueue*> intserv;
  const auto add_intserv = [&](net::NodeId from, net::NodeId to, const net::LinkConfig& cfg) {
    net::IntServQueue::Config qc;
    qc.best_effort_capacity = 4'096;
    auto q = std::make_unique<net::IntServQueue>(qc);
    intserv.push_back(q.get());
    net.add_link(from, to, cfg, std::move(q));
    fifos += 3;  // best effort + control + in flight
    ring_capacity += qc.best_effort_capacity + net::IntServQueue::kControlCapacity;
  };
  for (const net::NodeId e : edges) add_intserv(e, core, edge_up);
  add_intserv(core, sink, core_up);
  const std::uint64_t n_flows = kHosts * kFlowsPerHost;
  for (net::FlowId f = 1; f <= n_flows; f += 8) {
    const std::size_t host = (f - 1) / kFlowsPerHost;
    intserv[host % kEdges]->install_reservation(f, 32e3, 16'000, TimePoint::zero());
    intserv.back()->install_reservation(f, 32e3, 16'000, TimePoint::zero());
  }
  std::uint64_t delivered = 0;
  net.set_receiver(sink, [&delivered](net::Packet&&) { ++delivered; });

  // Identical rounds: every host bursts all its flows at a fixed offset.
  const auto round = [&](int r) {
    for (std::size_t h = 0; h < kHosts; ++h) {
      engine.at(TimePoint::zero() + kRound * r + microseconds(700 * static_cast<std::int64_t>(h)),
                [&net, &hosts, sink, h] {
                  for (std::size_t j = 0; j < kFlowsPerHost; ++j) {
                    net::Packet p;
                    p.dst = sink;
                    p.flow = h * kFlowsPerHost + j + 1;
                    p.size_bytes = 700;
                    p.dscp = (p.flow - 1) % 8 == 0 ? net::dscp::kEf : net::dscp::kBestEffort;
                    net.send(hosts[h], std::move(p));
                  }
                });
    }
    engine.run_until(TimePoint::zero() + kRound * (r + 1));
  };
  constexpr int kWarmupRounds = 2;
  constexpr int kRounds = static_cast<int>((kWindow + n_flows - 1) / n_flows);
  for (int r = 0; r < kWarmupRounds; ++r) round(r);
  const std::uint64_t before = g_heap_allocs;
  for (int r = kWarmupRounds; r < kWarmupRounds + kRounds; ++r) round(r);
  engine.run();
  EXPECT_EQ(g_heap_allocs - before, 0u);
  EXPECT_EQ(delivered, n_flows * (kWarmupRounds + kRounds));
  EXPECT_EQ(net.totals().delivered, net.totals().sent);

  // The arena is drained and sized to the peak number of packets queued at
  // once across the network: every chunk beyond that peak (rounded up to
  // a chunk) is a partly filled one, at most one per FIFO. Per-queue rings
  // keeping each queue's burst capacity would hold far more.
  const net::PacketChunkPool& pool = net.packet_pool();
  constexpr std::size_t kChunk = net::PacketChunkPool::kChunkPackets;
  EXPECT_EQ(pool.packets(), 0u);
  EXPECT_EQ(pool.chunks_in_use(), 0u);
  EXPECT_GT(pool.peak_packets(), n_flows / 4);
  const std::size_t peak_rounded = (pool.peak_packets() + kChunk - 1) / kChunk * kChunk;
  EXPECT_LE(pool.capacity_packets(), peak_rounded + (kChunk - 1) * fifos);
  EXPECT_LT(pool.capacity_packets(), ring_capacity / 2);
}

// --- per-flow table bytes ------------------------------------------------------

TEST(CallPathAllocs, DenseFlowCountersCostAtMost48BytesPerFlow) {
  constexpr std::uint64_t kFlows = 131'072;  // city_fanin's flow ids 1..N
  const std::uint64_t before = g_heap_bytes;
  {
    net::FlowMap<net::FlowCounters> flows;
    for (net::FlowId f = 1; f <= kFlows; ++f) ++flows[f].sent;
    ASSERT_EQ(flows.size(), kFlows);
  }
  const double per_flow = static_cast<double>(g_heap_bytes - before) / kFlows;
  // The values themselves are sizeof(FlowCounters) == 40 bytes.
  EXPECT_LE(per_flow, 48.0);
}

}  // namespace
}  // namespace aqm
