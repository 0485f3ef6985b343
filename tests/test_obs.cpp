// Observability layer: trace recorder semantics, metrics registry merge
// determinism, and end-to-end causal trace propagation through the ORB
// and network.
#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "net/flow_monitor.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/sidecar.hpp"
#include "obs/trace.hpp"
#include "orb/orb.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

namespace aqm {
namespace {

// --- TraceRecorder -------------------------------------------------------------

TEST(TraceRecorder, RecordsEventsWithStableTracks) {
  obs::TraceRecorder tr;
  const std::uint16_t a = tr.track("alpha");
  const std::uint16_t b = tr.track("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(tr.track("alpha"), a);  // same name -> same lane

  tr.instant(obs::TraceCategory::Net, "hit", a, TimePoint{1000}, 7, {{"x", 1.0}});
  tr.complete(obs::TraceCategory::Net, "span", b, TimePoint{2000}, microseconds(5));
  EXPECT_EQ(tr.size(), 2u);

  std::vector<const char*> names;
  tr.for_each([&](const obs::TraceEvent& e) { names.push_back(e.name); });
  ASSERT_EQ(names.size(), 2u);
  EXPECT_STREQ(names[0], "hit");
  EXPECT_STREQ(names[1], "span");
}

TEST(TraceRecorder, CategoryMaskFilters) {
  obs::TraceRecorder tr(static_cast<std::uint32_t>(obs::TraceCategory::Net));
  EXPECT_TRUE(tr.wants(obs::TraceCategory::Net));
  EXPECT_FALSE(tr.wants(obs::TraceCategory::Orb));
}

TEST(TraceRecorder, InternReturnsStablePointers) {
  obs::TraceRecorder tr;
  const char* p1 = tr.intern("call frame");
  // Force growth of the intern table.
  for (int i = 0; i < 100; ++i) (void)tr.intern("label " + std::to_string(i));
  const char* p2 = tr.intern("call frame");
  EXPECT_EQ(p1, p2);
  EXPECT_STREQ(p1, "call frame");
}

TEST(TraceRecorder, ClearKeepsRegistriesAndReusesChunks) {
  obs::TraceRecorder tr;
  const std::uint16_t lane = tr.track("lane");
  for (int i = 0; i < 5000; ++i) {  // spans multiple chunks
    tr.instant(obs::TraceCategory::Net, "e", lane, TimePoint{i});
  }
  EXPECT_EQ(tr.size(), 5000u);
  tr.clear();
  EXPECT_TRUE(tr.empty());
  EXPECT_EQ(tr.track("lane"), lane);
  tr.instant(obs::TraceCategory::Net, "e", lane, TimePoint{1});
  EXPECT_EQ(tr.size(), 1u);
}

TEST(TraceRecorder, RingCapacityRoundsUpToWholeChunks) {
  obs::TraceRecorder tr;
  EXPECT_EQ(tr.ring_capacity(), 0u);  // unbounded by default
  tr.set_ring_capacity(100);          // chunks are 2048 events
  EXPECT_EQ(tr.ring_capacity(), 2048u);
  tr.set_ring_capacity(2049);
  EXPECT_EQ(tr.ring_capacity(), 4096u);
}

TEST(TraceRecorder, RingEvictsWholeChunksAcrossBoundaries) {
  obs::TraceRecorder tr;
  tr.set_ring_capacity(4096);  // 2 chunks
  const std::uint16_t lane = tr.track("ring");
  const std::size_t recorded = 3 * 2048 + 5;  // crosses two chunk boundaries
  for (std::size_t i = 0; i < recorded; ++i) {
    tr.instant(obs::TraceCategory::Net, "e", lane, TimePoint{static_cast<std::int64_t>(i)});
  }
  // Eviction is chunk-granular: starting chunk 3 reclaimed chunk 1, starting
  // chunk 4 reclaimed chunk 2, so exactly two whole chunks were lost.
  EXPECT_EQ(tr.overwritten(), 4096u);
  EXPECT_EQ(tr.size(), recorded - 4096u);
  // Iteration starts at the oldest surviving event and stays in record order.
  std::int64_t expect_ts = 4096;
  std::size_t seen = 0;
  tr.for_each([&](const obs::TraceEvent& e) {
    EXPECT_EQ(e.ts_ns, expect_ts++);
    ++seen;
  });
  EXPECT_EQ(seen, tr.size());
  // clear() resets the loss counter along with the events.
  tr.clear();
  EXPECT_EQ(tr.overwritten(), 0u);
  EXPECT_TRUE(tr.empty());
}

TEST(TraceRecorder, RingModeStillHonorsCategoryMask) {
  obs::TraceRecorder tr(static_cast<std::uint32_t>(obs::TraceCategory::Net));
  tr.set_ring_capacity(2048);
  const std::uint16_t lane = tr.track("ring");
  for (int i = 0; i < 3000; ++i) {
    tr.instant(obs::TraceCategory::Orb, "masked", lane, TimePoint{i});
  }
  EXPECT_TRUE(tr.empty());  // masked-out events never enter the ring
  EXPECT_EQ(tr.overwritten(), 0u);
  for (int i = 0; i < 3000; ++i) {
    tr.instant(obs::TraceCategory::Net, "kept", lane, TimePoint{i});
  }
  EXPECT_EQ(tr.size() + tr.overwritten(), 3000u);
  tr.for_each([](const obs::TraceEvent& e) { EXPECT_STREQ(e.name, "kept"); });
}

TEST(TraceRecorder, ChromeJsonIsWellFormedAndNamesTracks) {
  obs::TraceRecorder tr;
  const std::uint16_t lane = tr.track("orb:client");
  tr.async_begin(obs::TraceCategory::Orb, "call echo", lane, TimePoint{1500}, 42);
  tr.async_end(obs::TraceCategory::Orb, "call echo", lane, TimePoint{2500}, 42);
  std::ostringstream os;
  tr.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("orb:client"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // Balanced braces is a cheap well-formedness proxy (no parser available).
  const auto open = std::count(json.begin(), json.end(), '{');
  const auto close = std::count(json.begin(), json.end(), '}');
  EXPECT_EQ(open, close);
}

TEST(TraceRecorder, ChromeJsonPrintsNonFiniteArgsAsNull) {
  // JSON has no inf/nan literals; a non-finite arg must not break the file.
  obs::TraceRecorder tr;
  const std::uint16_t lane = tr.track("app");
  tr.instant(obs::TraceCategory::App, "overflow", lane, TimePoint{1000}, 0,
             {{"rate", std::numeric_limits<double>::infinity()},
              {"ratio", std::numeric_limits<double>::quiet_NaN()}});
  std::ostringstream os;
  tr.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"args\":{\"rate\":null,\"ratio\":null}"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

// Reference model of the ring: a deque of chunks of at most `chunk` events
// each; opening a chunk past `max_chunks` (0 = unbounded) evicts the oldest
// chunk whole.
struct RingModel {
  struct Event {
    std::int64_t ts;
    std::uint8_t argc;
  };
  std::size_t chunk;
  std::size_t max_chunks;
  std::deque<std::vector<Event>> chunks;
  std::uint64_t overwritten = 0;

  void push(Event e) {
    if (chunks.empty() || chunks.back().size() == chunk) {
      if (max_chunks != 0 && chunks.size() == max_chunks) {
        overwritten += chunks.front().size();
        chunks.pop_front();
      }
      chunks.emplace_back();
    }
    chunks.back().push_back(e);
  }
  void clear() {
    chunks.clear();
    overwritten = 0;
  }
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& c : chunks) n += c.size();
    return n;
  }
};

void expect_matches(const obs::TraceRecorder& tr, const RingModel& model,
                    const std::string& where) {
  ASSERT_EQ(tr.size(), model.size()) << where;
  ASSERT_EQ(tr.overwritten(), model.overwritten) << where;
  std::vector<RingModel::Event> want;
  for (const auto& c : model.chunks) want.insert(want.end(), c.begin(), c.end());
  std::size_t i = 0;
  bool order_ok = true;
  tr.for_each([&](const obs::TraceEvent& e) {
    if (i >= want.size() || e.ts_ns != want[i].ts || e.argc != want[i].argc ||
        e.id != static_cast<std::uint64_t>(e.ts_ns) ||
        (e.argc > 0 && e.args[0].value != static_cast<double>(e.ts_ns)) ||
        (e.argc > 1 && e.args[1].value != -static_cast<double>(e.ts_ns))) {
      order_ok = false;
    }
    ++i;
  });
  EXPECT_TRUE(order_ok) << where;
  EXPECT_EQ(i, want.size()) << where;
}

TEST(TraceRecorder, RingMatchesChunkDequeModel) {
  obs::TraceRecorder probe;
  probe.set_ring_capacity(1);
  const std::size_t chunk = probe.ring_capacity();  // events per chunk

  for (std::size_t max_chunks : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{0}}) {
    obs::TraceRecorder tr;
    tr.set_ring_capacity(max_chunks * chunk);
    RingModel model{chunk, max_chunks, {}, 0};
    Rng rng(40 + max_chunks);
    std::int64_t seq = 0;
    auto push = [&] {
      const auto argc = static_cast<std::uint8_t>(seq % 3);
      const auto v = static_cast<double>(seq);
      const auto id = static_cast<std::uint64_t>(seq);
      if (argc == 0) {
        tr.instant(obs::TraceCategory::Net, "e", 0, TimePoint{seq}, id);
      } else if (argc == 1) {
        tr.async_begin(obs::TraceCategory::Orb, "e", 0, TimePoint{seq}, id, {{"a", v}});
      } else {
        tr.async_end(obs::TraceCategory::Orb, "e", 0, TimePoint{seq}, id, {{"a", v}, {"b", -v}});
      }
      model.push({seq, argc});
      ++seq;
    };
    const std::string cap = "capacity " + std::to_string(max_chunks) + " chunks";

    // Directed: the first push into a fresh recorder and after a clear(),
    // and a wrap exactly at a chunk edge.
    push();
    expect_matches(tr, model, cap + ", first push");
    tr.clear();
    model.clear();
    expect_matches(tr, model, cap + ", after clear");
    push();
    expect_matches(tr, model, cap + ", first push after clear");
    while (model.size() + model.overwritten < (max_chunks + 1) * chunk) push();
    expect_matches(tr, model, cap + ", full to a chunk edge");
    push();
    expect_matches(tr, model, cap + ", one past the edge");

    // Randomized: bursts that often stop exactly on a chunk edge, with
    // occasional clears.
    for (int step = 0; step < 300; ++step) {
      const std::int64_t kind = rng.uniform_int(0, 9);
      if (kind == 0) {
        tr.clear();
        model.clear();
      } else {
        std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 64));
        if (kind <= 3) {
          // To the end of the current chunk, or past it by one.
          const std::size_t fill = model.chunks.empty() ? 0 : model.chunks.back().size();
          n = chunk - fill % chunk + static_cast<std::size_t>(kind == 3);
        } else if (kind == 4) {
          n = chunk * static_cast<std::size_t>(rng.uniform_int(1, 2));
        }
        for (std::size_t i = 0; i < n; ++i) push();
      }
      expect_matches(tr, model, cap + ", step " + std::to_string(step));
      if (HasFatalFailure()) return;
      // An unbounded recorder would grow without limit: start it over.
      if (max_chunks == 0 && model.chunks.size() > 4) {
        tr.clear();
        model.clear();
      }
    }
  }
}

TEST(TraceRecorder, AmbientCurrentId) {
  obs::TraceRecorder tr;
  EXPECT_EQ(tr.current(), 0u);
  tr.set_current(99);
  EXPECT_EQ(tr.current(), 99u);
  tr.set_current(0);
  EXPECT_EQ(tr.current(), 0u);
}

// --- Engine guard --------------------------------------------------------------

TEST(EngineTracer, NullByDefaultAndCategoryGated) {
  sim::Engine engine;
  EXPECT_EQ(engine.tracer(), nullptr);
  EXPECT_EQ(engine.tracer_for(obs::TraceCategory::Net), nullptr);

  obs::TraceRecorder tr;  // default mask excludes Engine
  engine.set_tracer(&tr);
  EXPECT_EQ(engine.tracer(), &tr);
  EXPECT_NE(engine.tracer_for(obs::TraceCategory::Net), nullptr);
  EXPECT_EQ(engine.tracer_for(obs::TraceCategory::Engine), nullptr);

  engine.set_tracer(nullptr);
  EXPECT_EQ(engine.tracer_for(obs::TraceCategory::Net), nullptr);
}

// --- MetricsRegistry -----------------------------------------------------------

TEST(MetricsRegistry, SnapshotRoundTrip) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").inc(3);
  reg.gauge("a.util").set(0.5);
  reg.stats("a.lat").add(10.0);
  reg.stats("a.lat").add(20.0);
  reg.histogram("a.hist", 0.0, 10.0, 10).add(5.0);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a.count"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("a.util").mean(), 0.5);
  EXPECT_EQ(snap.stats.at("a.lat").count(), 2u);
  EXPECT_EQ(snap.histograms.at("a.hist").count(), 1u);
}

TEST(MetricsSnapshot, MergeSemantics) {
  obs::MetricsRegistry r1;
  r1.counter("c").inc(2);
  r1.gauge("g").set(1.0);
  r1.stats("s").add(1.0);
  r1.histogram("h", 0.0, 10.0, 10).add(1.0);
  obs::MetricsRegistry r2;
  r2.counter("c").inc(5);
  r2.gauge("g").set(3.0);
  r2.stats("s").add(3.0);
  r2.histogram("h", 0.0, 10.0, 10).add(9.0);

  obs::MetricsSnapshot merged = r1.snapshot();
  merged.merge(r2.snapshot());
  EXPECT_EQ(merged.counters.at("c"), 7u);                 // counters sum
  EXPECT_EQ(merged.gauges.at("g").count(), 2u);           // one sample per shard
  EXPECT_DOUBLE_EQ(merged.gauges.at("g").mean(), 2.0);
  EXPECT_EQ(merged.stats.at("s").count(), 2u);            // Welford merge
  EXPECT_EQ(merged.histograms.at("h").count(), 2u);       // bucket-wise sum
  EXPECT_EQ(merged.merge_conflicts, 0u);
}

TEST(MetricsSnapshot, MergeConflictCountsAndKeepsExisting) {
  obs::MetricsRegistry r1;
  r1.histogram("h", 0.0, 10.0, 10).add(1.0);
  obs::MetricsRegistry r2;
  r2.histogram("h", 0.0, 20.0, 10).add(1.0);  // different bounds
  obs::MetricsSnapshot merged = r1.snapshot();
  merged.merge(r2.snapshot());
  EXPECT_EQ(merged.merge_conflicts, 1u);
  EXPECT_EQ(merged.histograms.at("h").count(), 1u);
}

TEST(MetricsSnapshot, HistogramMergeRejectsEveryLayoutMismatch) {
  // Each mismatch axis — bucket count, bounds, linear vs log scale — keeps
  // the existing histogram and bumps merge_conflicts; a matching layout
  // then still merges cleanly into the same snapshot.
  obs::MetricsRegistry base;
  base.histogram("h", 1.0, 100.0, 10).add(2.0);
  obs::MetricsSnapshot merged = base.snapshot();

  obs::MetricsSnapshot buckets;
  buckets.histograms.emplace("h", Histogram(1.0, 100.0, 20));
  merged.merge(buckets);
  EXPECT_EQ(merged.merge_conflicts, 1u);

  obs::MetricsSnapshot scale;
  scale.histograms.emplace("h", Histogram::log_scaled(1.0, 100.0, 10));
  merged.merge(scale);
  EXPECT_EQ(merged.merge_conflicts, 2u);
  EXPECT_EQ(merged.histograms.at("h").count(), 1u);
  EXPECT_FALSE(merged.histograms.at("h").log_scale());

  obs::MetricsRegistry ok;
  ok.histogram("h", 1.0, 100.0, 10).add(50.0);
  merged.merge(ok.snapshot());
  EXPECT_EQ(merged.merge_conflicts, 2u);
  EXPECT_EQ(merged.histograms.at("h").count(), 2u);
}

TEST(MetricsSidecar, DeterministicBytesForAnyGrouping) {
  // Simulates the shard-merge contract: trials merged in index order give
  // identical bytes no matter how work was distributed.
  const auto make = [](std::uint64_t seed) {
    obs::MetricsRegistry reg;
    reg.counter("n").inc(seed);
    reg.stats("v").add(static_cast<double>(seed) * 0.1);
    return reg.snapshot();
  };
  std::vector<std::string> names;
  std::vector<obs::TrialObs> bundles(4);
  std::vector<obs::NamedTrialObs> trials;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    names.push_back("trial-" + std::to_string(i));
    bundles[i - 1].metrics = make(i);
  }
  for (std::size_t i = 0; i < bundles.size(); ++i) trials.push_back({names[i], bundles[i]});
  std::ostringstream a;
  obs::write_metrics_sidecar(a, trials);
  std::ostringstream b;
  obs::write_metrics_sidecar(b, trials);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"merged\""), std::string::npos);
  EXPECT_NE(a.str().find("\"trials\""), std::string::npos);
}

// --- Log thread tags -----------------------------------------------------------

TEST(LogThreadTag, PrefixesMessagesPerThread) {
  std::vector<std::string> lines;
  Log::set_sink([&](LogLevel, std::string_view msg) { lines.emplace_back(msg); });
  const LogLevel prev = Log::level();
  Log::set_level(LogLevel::Info);

  Log::set_thread_tag("main");
  AQM_INFO() << "hello";
  std::thread t([] {
    // Worker threads start untagged regardless of the caller's tag.
    AQM_INFO() << "worker untagged";
    Log::set_thread_tag("w7");
    AQM_INFO() << "worker tagged";
  });
  t.join();
  Log::set_thread_tag("");
  AQM_INFO() << "untagged again";

  Log::set_level(prev);
  Log::set_sink(nullptr);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "[main] hello");
  EXPECT_EQ(lines[1], "worker untagged");
  EXPECT_EQ(lines[2], "[w7] worker tagged");
  EXPECT_EQ(lines[3], "untagged again");
}

// --- End-to-end causal propagation ---------------------------------------------

struct TracedOrbFixture : public ::testing::Test {
  TracedOrbFixture()
      : net(engine),
        client_node(net.add_node("client")),
        server_node(net.add_node("server")),
        client_cpu(engine, "client-cpu"),
        server_cpu(engine, "server-cpu"),
        client(net, client_node, client_cpu),
        server(net, server_node, server_cpu) {
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 100e6;
    cfg.propagation = microseconds(100);
    net.add_duplex_link(client_node, server_node, cfg);
    engine.set_tracer(&recorder);
  }

  obs::TraceRecorder recorder;
  sim::Engine engine;
  net::Network net;
  net::NodeId client_node;
  net::NodeId server_node;
  os::Cpu client_cpu;
  os::Cpu server_cpu;
  orb::OrbEndpoint client;
  orb::OrbEndpoint server;
};

TEST_F(TracedOrbFixture, RequestTraceChainsAcrossLayers) {
  orb::Poa& poa = server.create_poa("app");
  auto servant = std::make_shared<orb::FunctionServant>(
      microseconds(100), [](orb::ServerRequest& req) { req.reply_body = req.body; });
  const orb::ObjectRef ref = poa.activate_object("echo", std::move(servant));

  std::optional<orb::CompletionStatus> status;
  client.invoke(ref, "echo", {1, 2, 3}, orb::InvokeOptions{},
                [&](orb::CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  ASSERT_TRUE(status);
  EXPECT_EQ(*status, orb::CompletionStatus::Ok);

  // Exactly one client call span, opened and closed.
  std::uint64_t call_id = 0;
  int begins = 0;
  int ends = 0;
  recorder.for_each([&](const obs::TraceEvent& e) {
    if (std::string_view(e.name).substr(0, 5) != "call ") return;
    if (e.phase == obs::TracePhase::AsyncBegin) {
      ++begins;
      call_id = e.id;
    } else if (e.phase == obs::TracePhase::AsyncEnd) {
      ++ends;
    }
  });
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
  ASSERT_NE(call_id, 0u);

  // The same id shows up on ORB send, network hops, dispatch and reply.
  std::set<std::string> names;
  recorder.for_each([&](const obs::TraceEvent& e) {
    if (e.id == call_id) names.insert(e.name);
  });
  EXPECT_TRUE(names.count("send"));
  EXPECT_TRUE(names.count("enqueue"));
  EXPECT_TRUE(names.count("tx"));
  EXPECT_TRUE(names.count("deliver"));
  EXPECT_TRUE(names.count("dispatch"));
  EXPECT_TRUE(names.count("reply.send"));
  EXPECT_TRUE(names.count("reply.recv"));
  EXPECT_EQ(server.last_dispatch_trace(), call_id);
}

TEST_F(TracedOrbFixture, CallSpanNamesAreInternedOncePerRecorder) {
  orb::Poa& poa = server.create_poa("app");
  auto servant = std::make_shared<orb::FunctionServant>(
      microseconds(100), [](orb::ServerRequest& req) { req.reply_body = req.body; });
  const orb::ObjectRef ref = poa.activate_object("echo", std::move(servant));
  auto call = [&] {
    client.invoke(ref, "echo", {1}, orb::InvokeOptions{},
                  [](orb::CompletionStatus, std::vector<std::uint8_t>) {});
    engine.run();
  };
  auto call_spans = [](const obs::TraceRecorder& rec) {
    std::vector<const char*> names;
    rec.for_each([&](const obs::TraceEvent& e) {
      if (e.cat == obs::TraceCategory::Orb && e.phase == obs::TracePhase::AsyncBegin) {
        names.push_back(e.name);
      }
    });
    return names;
  };

  call();
  call();
  const std::vector<const char*> names = call_spans(recorder);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], names[1]);
  EXPECT_EQ(names[0], recorder.intern("call echo"));

  // A recorder built where a destroyed one lived (same address) must get
  // names interned in itself, not the dead recorder's pointers. Short
  // names interned first take the blocks the dead recorder's strings
  // freed, so a stale "call echo" pointer cannot coincide with the live
  // one by allocator reuse.
  std::optional<obs::TraceRecorder> other;
  for (int round = 0; round < 2; ++round) {
    other.emplace();
    for (int i = 0; i < 16; ++i) (void)other->intern("pad " + std::to_string(i));
    engine.set_tracer(&*other);
    call();
    const std::vector<const char*> mine = call_spans(*other);
    ASSERT_EQ(mine.size(), 1u) << "round " << round;
    EXPECT_EQ(mine[0], other->intern("call echo")) << "round " << round;
    engine.set_tracer(nullptr);
    other.reset();
  }
}

TEST_F(TracedOrbFixture, NoTracerMeansNoEventsAndSameResults) {
  engine.set_tracer(nullptr);
  orb::Poa& poa = server.create_poa("app");
  auto servant = std::make_shared<orb::FunctionServant>(
      microseconds(100), [](orb::ServerRequest& req) { req.reply_body = req.body; });
  const orb::ObjectRef ref = poa.activate_object("echo", std::move(servant));
  std::optional<orb::CompletionStatus> status;
  client.invoke(ref, "echo", {9}, orb::InvokeOptions{},
                [&](orb::CompletionStatus s, std::vector<std::uint8_t>) { status = s; });
  engine.run();
  ASSERT_TRUE(status);
  EXPECT_EQ(*status, orb::CompletionStatus::Ok);
  EXPECT_TRUE(recorder.empty());
}

// --- FlowMonitor metrics -------------------------------------------------------

TEST(FlowMonitorObs, JitterAndInterarrivalAndExport) {
  sim::Engine engine;
  net::Network net(engine);
  const net::NodeId a = net.add_node("a");
  const net::NodeId b = net.add_node("b");
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 10e6;
  cfg.propagation = microseconds(100);
  net.add_duplex_link(a, b, cfg);
  net::FlowMonitor mon(net, b);

  for (int i = 0; i < 10; ++i) {
    engine.at(TimePoint{milliseconds(10 * (i + 1)).ns()}, [&net, a, b, i] {
      net::Packet p;
      p.dst = b;
      p.flow = 1;
      p.seq = static_cast<std::uint64_t>(i);
      p.size_bytes = 500;
      net.send(a, p);
    });
  }
  engine.run();

  EXPECT_EQ(mon.received(1), 10u);
  EXPECT_EQ(mon.dropped(1), 0u);
  // Constant spacing and constant transit: ~10 ms gaps, ~zero jitter.
  EXPECT_EQ(mon.interarrival_ms(1).count(), 9u);
  EXPECT_NEAR(mon.interarrival_ms(1).mean(), 10.0, 0.1);
  EXPECT_NEAR(mon.jitter_ms(1), 0.0, 0.01);
  // Unknown flows read as zero.
  EXPECT_EQ(mon.received(7), 0u);
  EXPECT_DOUBLE_EQ(mon.jitter_ms(7), 0.0);

  obs::MetricsRegistry reg;
  mon.export_metrics(reg, "mon");
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("mon.flow1.received"), 10u);
  EXPECT_EQ(snap.counters.at("mon.flow1.dropped"), 0u);
  EXPECT_EQ(snap.stats.at("mon.flow1.interarrival_ms").count(), 9u);
}

TEST(NetworkObs, ExportMetricsCountsFlows) {
  sim::Engine engine;
  net::Network net(engine);
  const net::NodeId a = net.add_node("a");
  const net::NodeId b = net.add_node("b");
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 10e6;
  net.add_duplex_link(a, b, cfg);
  net.set_receiver(b, [](net::Packet&&) {});
  net::Packet p;
  p.dst = b;
  p.flow = 3;
  p.size_bytes = 100;
  net.send(a, p);
  engine.run();

  obs::MetricsRegistry reg;
  net.export_metrics(reg, "net");
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("net.total.sent"), 1u);
  EXPECT_EQ(snap.counters.at("net.total.delivered"), 1u);
  EXPECT_EQ(snap.counters.at("net.flow3.sent"), 1u);
}

}  // namespace
}  // namespace aqm
