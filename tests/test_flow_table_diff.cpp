// Differential suite for the indexed per-flow network state (DESIGN.md §10).
//
// FlowMap, the paged table behind every FlowId-keyed map in net/ and the
// GIOP transport, is checked at its page edges and against std::map under
// seeded random churn. The SoA flow table behind IntServQueue (FlowMap
// FlowId -> dense slot, shared packet-node pool, ready-flow heap,
// id-ordered reserved-rate sum) must be observably indistinguishable from
// oracle::MapIntServQueue (tests/oracle/), a reference model that keeps
// every flow in one std::map and scans it — the same production-vs-oracle
// pattern test_cpu_sched_diff uses for the CPU scheduler. Every test builds
// one deterministic operation script, replays it against both queues, and
// asserts byte-identical observation logs (doubles are compared through
// hexfloat formatting, so the reserved-rate sums must match bit for bit,
// not just approximately).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "net/flow_table.hpp"
#include "net/network.hpp"
#include "net/flow_monitor.hpp"
#include "net/queue.hpp"
#include "net/rsvp.hpp"
#include "net/token_bucket.hpp"
#include "oracle/map_intserv_queue.hpp"
#include "sim/engine.hpp"

namespace aqm::net {
namespace {

// --- FlowMap unit coverage ---------------------------------------------------

TEST(FlowMap, InsertFindEraseRecycle) {
  FlowMap<int> m;
  EXPECT_TRUE(m.empty());
  m[7] = 70;
  m[3] = 30;
  m[11] = 110;
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 70);
  EXPECT_EQ(m.find(8), nullptr);
  EXPECT_TRUE(m.contains(3));

  EXPECT_TRUE(m.erase(3));
  EXPECT_FALSE(m.erase(3));
  EXPECT_FALSE(m.contains(3));
  // The freed slot is recycled and the value reset, not a stale leftover.
  m[5] = 50;
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(*m.find(5), 50);
  EXPECT_EQ(*m.find(7), 70);
}

TEST(FlowMap, ZeroIsARealKey) {
  // kNoFlow == 0 indexes unclassified traffic in Network::flows_; the table
  // must treat it as an ordinary key with no sentinel semantics.
  FlowMap<int> m;
  m[kNoFlow] = 1;
  EXPECT_TRUE(m.contains(kNoFlow));
  EXPECT_EQ(m.sorted_ids().front(), kNoFlow);
}

TEST(FlowMap, OrderedIterationIsAscending) {
  FlowMap<int> m;
  for (const FlowId id : {9u, 2u, 40u, 1u, 17u}) m[id] = static_cast<int>(id * 10);
  m.erase(40);
  m[4] = 40;  // recycles 40's slot: order must follow ids, not slots
  const std::vector<FlowId> want{1, 2, 4, 9, 17};
  EXPECT_EQ(m.sorted_ids(), want);
  std::vector<FlowId> seen;
  m.for_each_ordered([&](FlowId id, const int& v) {
    seen.push_back(id);
    EXPECT_EQ(v, static_cast<int>(id * 10));
  });
  EXPECT_EQ(seen, want);
}

// --- paged layout: page boundaries, page lifetime, stable references ---------

constexpr FlowId kMaxId = ~FlowId{0};

TEST(FlowMap, PageBoundaryAndExtremeIds) {
  FlowMap<FlowId> m;
  const std::vector<FlowId> ids{65, kMaxId, 63, 0, 64};
  for (const FlowId id : ids) m[id] = id ^ 0x5A5A;
  EXPECT_EQ(m.size(), ids.size());
  for (const FlowId id : ids) {
    ASSERT_NE(m.find(id), nullptr) << id;
    EXPECT_EQ(*m.find(id), id ^ 0x5A5A);
  }
  // Neighbours on the same pages are absent.
  for (const FlowId id : {FlowId{1}, FlowId{62}, FlowId{66}, FlowId{127}, kMaxId - 1}) {
    EXPECT_FALSE(m.contains(id)) << id;
  }
  const std::vector<FlowId> want{0, 63, 64, 65, kMaxId};
  EXPECT_EQ(m.sorted_ids(), want);
  EXPECT_TRUE(m.erase(64));
  EXPECT_FALSE(m.contains(64));
  EXPECT_EQ(*m.find(63), FlowId{63} ^ 0x5A5A);
  EXPECT_EQ(*m.find(65), FlowId{65} ^ 0x5A5A);
  EXPECT_TRUE(m.erase(kMaxId));
  EXPECT_FALSE(m.erase(kMaxId));
  const std::vector<FlowId> left{0, 63, 65};
  EXPECT_EQ(m.sorted_ids(), left);
}

TEST(FlowMap, IdsAPageOrMoreApart) {
  FlowMap<int> m;
  std::vector<FlowId> ids;
  for (FlowId k = 0; k < 200; ++k) ids.push_back(k * 64 + (k % 64));
  for (FlowId k = 1; k < 8; ++k) ids.push_back(k << 40);
  for (std::size_t i = ids.size(); i-- > 0;) m[ids[i]] = static_cast<int>(i);
  EXPECT_EQ(m.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_NE(m.find(ids[i]), nullptr) << ids[i];
    EXPECT_EQ(*m.find(ids[i]), static_cast<int>(i));
    EXPECT_FALSE(m.contains(ids[i] + 64));
  }
  std::vector<FlowId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(m.sorted_ids(), sorted);
}

TEST(FlowMap, ErasingTheLastIdOfAPageThenReinsertingIt) {
  FlowMap<int> m;
  m[5] = 50;     // page 0
  m[130] = 13;   // page 2, alone
  m[200] = 20;   // page 3
  int* const keep = m.find(200);
  EXPECT_TRUE(m.erase(130));  // frees page 2; page 3 takes its directory place
  EXPECT_FALSE(m.contains(130));
  EXPECT_EQ(m.find(130), nullptr);
  EXPECT_FALSE(m.erase(130));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.find(200), keep);
  EXPECT_EQ(*keep, 20);
  // The reinserted id starts from a fresh value, not the erased one.
  EXPECT_EQ(m[130], 0);
  m[130] = 31;
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(*m.find(130), 31);
  EXPECT_EQ(m.find(200), keep);
  // Emptying the first page too leaves the rest intact and ordered.
  EXPECT_TRUE(m.erase(5));
  const std::vector<FlowId> want{130, 200};
  EXPECT_EQ(m.sorted_ids(), want);
  EXPECT_EQ(*m.find(200), 20);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.contains(200));
}

TEST(FlowMap, ReferencesStayValidAcrossInserts) {
  FlowMap<std::uint64_t> m;
  std::vector<std::pair<FlowId, std::uint64_t*>> held;
  for (const FlowId id : {FlowId{1}, FlowId{64}, FlowId{4'000}, FlowId{1} << 50}) {
    std::uint64_t& v = m[id];
    v = id * 3;
    held.emplace_back(id, &v);
  }
  // 10k more inserts, dense and sparse, plus churn that frees whole pages.
  for (FlowId id = 2; id < 8'002; ++id) m[id] = id;
  for (FlowId k = 0; k < 2'000; ++k) m[(k + 7) << 20] = k;
  for (FlowId k = 0; k < 2'000; k += 2) m.erase((k + 7) << 20);
  for (const auto& [id, ptr] : held) {
    if (id >= 2 && id < 8'002) continue;  // overwritten by the dense run
    EXPECT_EQ(m.find(id), ptr) << id;
    EXPECT_EQ(*ptr, id * 3) << id;
  }
  EXPECT_EQ(m.find(64), held[1].second);
  EXPECT_EQ(*held[1].second, 64u);
  EXPECT_EQ(m.find(4'000), held[2].second);
}

/// Random insert / overwrite / erase / lookup churn over one id population,
/// checked op by op against std::map, ordered views included.
void diff_against_std_map(std::uint64_t seed, const std::vector<FlowId>& population) {
  std::mt19937_64 rng(seed);
  FlowMap<std::uint64_t> m;
  std::map<FlowId, std::uint64_t> ref;
  const auto pick = [&] { return population[rng() % population.size()]; };
  for (int step = 0; step < 20'000; ++step) {
    const FlowId id = pick();
    switch (rng() % 4) {
      case 0:
      case 1: {
        const std::uint64_t v = rng();
        m[id] = v;
        ref[id] = v;
        break;
      }
      case 2:
        ASSERT_EQ(m.erase(id), ref.erase(id) == 1) << "step " << step;
        break;
      default: {
        const auto it = ref.find(id);
        const std::uint64_t* got = m.find(id);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "step " << step;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second);
        }
      }
    }
    ASSERT_EQ(m.size(), ref.size());
    if (step % 997 == 0 || step == 19'999) {
      std::vector<std::pair<FlowId, std::uint64_t>> seen;
      m.for_each_ordered([&](FlowId k, const std::uint64_t& v) { seen.emplace_back(k, v); });
      const std::vector<std::pair<FlowId, std::uint64_t>> want(ref.begin(), ref.end());
      ASSERT_EQ(seen, want) << "step " << step;
      std::vector<FlowId> keys;
      for (const auto& [k, v] : want) keys.push_back(k);
      ASSERT_EQ(m.sorted_ids(), keys);
    }
  }
}

TEST(FlowMap, RandomChurnMatchesStdMapDense) {
  std::vector<FlowId> ids;
  for (FlowId id = 0; id < 3'000; ++id) ids.push_back(id);
  diff_against_std_map(11, ids);
}

TEST(FlowMap, RandomChurnMatchesStdMapStride8) {
  std::vector<FlowId> ids;
  for (FlowId id = 1; id < 24'000; id += 8) ids.push_back(id);
  diff_against_std_map(12, ids);
}

TEST(FlowMap, RandomChurnMatchesStdMapSparse) {
  std::mt19937_64 rng(13);
  std::vector<FlowId> ids{0, kMaxId};
  for (int i = 0; i < 3'000; ++i) ids.push_back(rng());
  diff_against_std_map(14, ids);
}

// --- hierarchical token bucket ----------------------------------------------

TEST(HierarchicalTokenBucket, RequiresBothLevels) {
  const TimePoint t0 = TimePoint::zero();
  TokenBucket parent(800.0, 100);     // shallow, slow parent
  TokenBucket child(8000.0, 1000);    // generous child
  // Conforms at the child but not the parent: rejected, and neither bucket
  // is debited (the failed check must be side-effect free).
  EXPECT_FALSE(hierarchical_consume(parent, child, 500, t0));
  EXPECT_DOUBLE_EQ(child.available(t0), 1000.0);
  EXPECT_DOUBLE_EQ(parent.available(t0), 100.0);
  // Small enough for both: accepted, both debited.
  EXPECT_TRUE(hierarchical_consume(parent, child, 100, t0));
  EXPECT_DOUBLE_EQ(child.available(t0), 900.0);
  EXPECT_DOUBLE_EQ(parent.available(t0), 0.0);
  // Parent exhausted: rejected again with no child debit.
  EXPECT_FALSE(hierarchical_consume(parent, child, 100, t0));
  EXPECT_DOUBLE_EQ(child.available(t0), 900.0);
}

// --- IntServQueue operation-script differencing ------------------------------

struct Op {
  enum class Kind {
    Install,  // flow, rate_bps, bucket_bytes
    Update,   // flow, rate_bps, bucket_bytes (in-place re-stamp, keeps fill)
    Remove,   // flow
    Enqueue,  // flow, size, dscp
    Dequeue,
    Probe,    // reserved sum (bitwise), per-flow rates, counts, stats
  };
  Kind kind;
  std::int64_t at_ns = 0;
  FlowId flow = kNoFlow;
  double rate_bps = 0.0;
  std::uint32_t bucket_bytes = 0;
  std::uint32_t size = 0;
  Dscp dscp = dscp::kBestEffort;
};

std::string hex(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

/// Replays `script` on a fresh queue and records everything observable.
template <typename IntServ>
std::vector<std::string> run_script(const std::vector<Op>& script,
                                    const IntServQueue::Config& config) {
  IntServ q(config);
  std::vector<std::string> log;
  for (const Op& op : script) {
    const TimePoint now{op.at_ns};
    std::ostringstream line;
    switch (op.kind) {
      case Op::Kind::Install:
        q.install_reservation(op.flow, op.rate_bps, op.bucket_bytes, now);
        line << "install " << op.flow;
        break;
      case Op::Kind::Update:
        line << "update " << op.flow << " "
             << q.update_reservation(op.flow, op.rate_bps, op.bucket_bytes, now);
        break;
      case Op::Kind::Remove:
        q.remove_reservation(op.flow);
        line << "remove " << op.flow;
        break;
      case Op::Kind::Enqueue: {
        Packet p;
        p.src = 0;
        p.dst = 1;
        p.flow = op.flow;
        p.size_bytes = op.size;
        p.dscp = op.dscp;
        const auto rejected = q.enqueue(std::move(p), now);
        line << "enq " << op.flow << " "
             << (rejected ? "drop:" + std::to_string(rejected->size_bytes) : "ok");
        break;
      }
      case Op::Kind::Dequeue: {
        const auto p = q.dequeue();
        if (p) {
          line << "deq " << p->flow << " " << p->size_bytes << " "
               << static_cast<int>(p->dscp);
        } else {
          line << "deq none";
        }
        break;
      }
      case Op::Kind::Probe: {
        line << "probe sum=" << hex(q.reserved_rate_bps())
             << " n=" << q.reservation_count() << " pkts=" << q.packets()
             << " bytes=" << q.bytes()
             << " rate(" << op.flow << ")=" << hex(q.flow_rate_bps(op.flow))
             << " has=" << q.has_reservation(op.flow)
             << " stats=" << q.stats().enqueued << "/" << q.stats().dequeued << "/"
             << q.stats().dropped << "/" << q.stats().dropped_bytes;
        break;
      }
    }
    log.push_back(line.str());
  }
  // Drain whatever is left: exit paths must match too.
  while (auto p = q.dequeue()) {
    log.push_back("drain " + std::to_string(p->flow) + " " +
                  std::to_string(p->size_bytes));
  }
  log.push_back("final sum=" + hex(q.reserved_rate_bps()) +
                " n=" + std::to_string(q.reservation_count()));
  return log;
}

std::vector<Op> random_script(std::uint64_t seed, std::size_t n_ops) {
  std::mt19937_64 rng(seed);
  std::vector<Op> script;
  std::int64_t now_ns = 0;
  // A mix of a small hot id set (heavy churn, slot recycling) and a wide
  // range (exercises ordering away from insertion order).
  const auto pick_flow = [&]() -> FlowId {
    return rng() % 4 == 0 ? 100 + rng() % 900 : 1 + rng() % 16;
  };
  const Dscp dscps[] = {dscp::kBestEffort, dscp::kEf, dscp::kAf11, dscp::kCs6};
  for (std::size_t i = 0; i < n_ops; ++i) {
    now_ns += static_cast<std::int64_t>(rng() % 2'000'000);  // 0-2ms strides
    Op op;
    op.at_ns = now_ns;
    switch (rng() % 11) {
      case 0:
      case 1: {
        op.kind = Op::Kind::Install;  // fresh install or modify
        op.flow = pick_flow();
        op.rate_bps = 1e5 + static_cast<double>(rng() % 1000) * 977.0;
        op.bucket_bytes = 2'000 + static_cast<std::uint32_t>(rng() % 8) * 1'000;
        break;
      }
      case 2:
        op.kind = Op::Kind::Remove;
        op.flow = pick_flow();
        break;
      case 10: {
        // Control-plane re-stamp churn: rate/bucket change in place, bucket
        // fill preserved, incremental reserved-rate sum must stay bitwise
        // equal to the oracle's fresh summation.
        op.kind = Op::Kind::Update;
        op.flow = pick_flow();
        op.rate_bps = 1e5 + static_cast<double>(rng() % 1000) * 977.0;
        op.bucket_bytes = 2'000 + static_cast<std::uint32_t>(rng() % 8) * 1'000;
        break;
      }
      case 3:
      case 4:
      case 5:
      case 6: {
        op.kind = Op::Kind::Enqueue;
        op.flow = rng() % 8 == 0 ? kNoFlow : pick_flow();  // some unreserved
        op.size = 64 + static_cast<std::uint32_t>(rng() % 1400);
        op.dscp = dscps[rng() % 4];
        break;
      }
      case 7:
      case 8:
        op.kind = Op::Kind::Dequeue;
        break;
      default:
        op.kind = Op::Kind::Probe;
        op.flow = pick_flow();
        break;
    }
    script.push_back(op);
  }
  return script;
}

void expect_same(const std::vector<Op>& script, const IntServQueue::Config& config) {
  EXPECT_EQ(run_script<IntServQueue>(script, config),
            run_script<oracle::MapIntServQueue>(script, config));
}

class FlowTableDiff : public ::testing::TestWithParam<std::uint64_t> {};

/// Fills one generously reserved flow past IntServQueue::kFlowCapacity
/// before the random churn starts, so the capacity clamp (excess demoted,
/// then dropped by the full best-effort queue) is exercised too.
std::vector<Op> with_capacity_burst(std::vector<Op> script) {
  std::vector<Op> burst;
  Op install{Op::Kind::Install};
  install.flow = 3;
  install.rate_bps = 1e9;
  install.bucket_bytes = 1'000'000;
  burst.push_back(install);
  for (std::size_t i = 0; i < IntServQueue::kFlowCapacity + 40; ++i) {
    Op enq{Op::Kind::Enqueue};
    enq.flow = 3;
    enq.size = 500;
    burst.push_back(enq);
  }
  Op probe{Op::Kind::Probe};
  probe.flow = 3;
  burst.push_back(probe);
  script.insert(script.begin(), burst.begin(), burst.end());
  return script;
}

TEST_P(FlowTableDiff, DemoteModeMatchesLegacy) {
  IntServQueue::Config config;
  config.best_effort_capacity = 32;  // small: exercises demote drops
  const auto script = with_capacity_burst(random_script(GetParam(), 600));
  expect_same(script, config);
}

TEST_P(FlowTableDiff, HierarchicalParentMatchesLegacy) {
  // The shared parent bucket must police identically in production and in
  // the oracle's own two-level policer, over two scripts per seed. At
  // 200 kbps the parent, not the flows' own buckets, refuses most of the
  // reserved load once its 64 kB depth is spent.
  for (const std::uint64_t salt : {0xA1u, 0xB2u}) {
    IntServQueue::Config config;
    config.best_effort_capacity = 32;
    config.parent_rate_bps = 2e5;
    const auto script = random_script(GetParam() ^ salt, 600);
    expect_same(script, config);
  }
}

INSTANTIATE_TEST_SUITE_P(Churn, FlowTableDiff,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// --- network-level check: RSVP signaling + forwarding + metrics export -------

/// Runs a small reserved-traffic scenario over IntServ egress queues and
/// returns the full metrics-registry JSON.
std::string run_network_scenario() {
  sim::Engine engine;
  Network net(engine);
  const NodeId a = net.add_node("a");
  const NodeId r = net.add_node("r");
  const NodeId b = net.add_node("b");
  LinkConfig cfg;
  cfg.bandwidth_bps = 10e6;
  cfg.propagation = microseconds(50);
  const auto make_queue = []() -> std::unique_ptr<Queue> {
    return std::make_unique<IntServQueue>(IntServQueue::Config{});
  };
  net.add_duplex_link(a, r, cfg, make_queue);
  net.add_duplex_link(r, b, cfg, make_queue);

  std::vector<std::unique_ptr<RsvpAgent>> agents;
  for (const NodeId n : {a, r, b}) agents.push_back(std::make_unique<RsvpAgent>(net, n));
  FlowMonitor monitor(net, b);

  // Reserve flows 1-4, tear one down mid-run, and keep data flowing across
  // reserved, unreserved, and torn-down flows throughout.
  for (FlowId f = 1; f <= 4; ++f) {
    agents[0]->reserve(f, b, FlowSpec{1e6, 8'000}, [](Status<std::string>) {});
  }
  engine.at(TimePoint::zero() + milliseconds(40), [&] { agents[0]->release(2); });
  for (int i = 0; i < 200; ++i) {
    engine.at(TimePoint::zero() + milliseconds(1 + i / 2), [&net, a, b, i] {
      Packet p;
      p.dst = b;
      p.flow = static_cast<FlowId>(i % 6);  // 0 = unclassified, 5 = never reserved
      p.size_bytes = 400 + static_cast<std::uint32_t>(i % 7) * 100;
      p.dscp = i % 3 == 0 ? dscp::kEf : dscp::kBestEffort;
      p.seq = static_cast<std::uint64_t>(i);
      net.send(a, std::move(p));
    });
  }
  engine.run();

  obs::MetricsRegistry reg;
  net.export_metrics(reg, "net");
  monitor.export_metrics(reg, "mon");
  std::ostringstream os;
  reg.snapshot().write_json(os, 2);
  return os.str();
}

/// RsvpAgent installs reservations into the concrete IntServQueue, so this
/// scenario cannot host the oracle queue. Its export is pinned instead: the
/// golden file was captured while the indexed table and the original
/// std::map storage still ran side by side and exported identical bytes.
TEST(FlowTableDiff, NetworkScenarioExportsIdenticalMetrics) {
  std::ifstream golden(AQM_TESTS_DIR "/golden/flow_table_network_metrics.json",
                       std::ios::binary);
  ASSERT_TRUE(golden) << "missing golden file";
  std::ostringstream want;
  want << golden.rdbuf();
  const std::string metrics = run_network_scenario();
  EXPECT_FALSE(metrics.empty());
  EXPECT_EQ(metrics, want.str());
}

TEST(FlowMonitorSnapshot, ObservedFlowsAreSorted) {
  sim::Engine engine;
  Network net(engine);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig cfg;
  cfg.bandwidth_bps = 10e6;
  net.add_duplex_link(a, b, cfg);
  FlowMonitor monitor(net, b);
  for (const FlowId f : {9u, 2u, 31u, 5u}) {
    engine.after(microseconds(10), [&net, a, b, f] {
      Packet p;
      p.dst = b;
      p.flow = f;
      p.size_bytes = 200;
      net.send(a, std::move(p));
    });
  }
  engine.run();
  const std::vector<FlowId> want{2, 5, 9, 31};
  EXPECT_EQ(monitor.observed_flows(), want);
}

}  // namespace
}  // namespace aqm::net
