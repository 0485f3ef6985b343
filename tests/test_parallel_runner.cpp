// Tests for the shard-parallel experiment runner and the coalesced link
// transmitter:
//  * ParallelRunner mechanics: full coverage of indices, exception
//    propagation out of worker threads, inline fallback.
//  * parse_experiment_options / derive_seed helpers.
//  * Worker-count invariance: a 32-trial load sweep produces bit-identical
//    per-trial results at 1, 2 and 8 workers (the determinism contract).
//  * Event-coalescing equivalence: per-flow delivered/dropped counts on a
//    saturated link are identical with the coalesced and the legacy
//    two-event transmitter, across drop-tail, lossy-link and token-bucket
//    gated (IntServ) configurations — and the coalesced path executes
//    fewer simulator events to get there.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"
#include "net/network.hpp"
#include "net/queue.hpp"
#include "net/traffic_gen.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_runner.hpp"

namespace {

using namespace aqm;

// --- ParallelRunner mechanics -----------------------------------------------

TEST(ParallelRunner, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 100;
  std::vector<std::atomic<int>> hits(kN);
  const sim::ParallelRunner runner(4);
  runner.run(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelRunner, InlineWhenSingleJob) {
  std::vector<std::size_t> order;
  const sim::ParallelRunner runner(1);
  runner.run(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelRunner, PropagatesWorkerException) {
  const sim::ParallelRunner runner(4);
  EXPECT_THROW(
      runner.run(50,
                 [](std::size_t i) {
                   if (i == 13) throw std::runtime_error("trial 13 failed");
                 }),
      std::runtime_error);
}

TEST(ParallelRunner, ResolveJobsZeroMeansAllCores) {
  EXPECT_GE(sim::ParallelRunner::resolve_jobs(0), 1u);
  EXPECT_EQ(sim::ParallelRunner::resolve_jobs(3), 3u);
}

// --- option parsing and seed derivation ---------------------------------------

TEST(ExperimentOptions, ParsesAndStripsJobsFlag) {
  char a0[] = "prog", a1[] = "--jobs", a2[] = "3";
  char* argv[] = {a0, a1, a2, nullptr};
  int argc = 3;
  const auto opts = core::parse_experiment_options(argc, argv);
  EXPECT_EQ(opts.jobs, 3u);
  ASSERT_EQ(argc, 1);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_EQ(argv[1], nullptr);

  // Anything unrecognised fails loudly instead of being silently dropped:
  // a stale --partitions flag and a plain typo alike.
  const auto parse = [](std::vector<std::string> args) {
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    int argc = static_cast<int>(args.size());
    core::parse_experiment_options(argc, argv.data());
  };
  EXPECT_EXIT(parse({"prog", "--partitions", "2"}), ::testing::ExitedWithCode(2),
              "unknown argument: --partitions.*usage: prog");
  EXPECT_EXIT(parse({"prog", "--jobs", "2", "--jbos=4"}), ::testing::ExitedWithCode(2),
              "unknown argument: --jbos=4.*usage: prog");
}

TEST(ExperimentOptions, ParsesCompactForms) {
  {
    char a0[] = "prog", a1[] = "-j8";
    char* argv[] = {a0, a1, nullptr};
    int argc = 2;
    EXPECT_EQ(core::parse_experiment_options(argc, argv).jobs, 8u);
    EXPECT_EQ(argc, 1);
  }
  {
    char a0[] = "prog", a1[] = "--jobs=5";
    char* argv[] = {a0, a1, nullptr};
    int argc = 2;
    EXPECT_EQ(core::parse_experiment_options(argc, argv).jobs, 5u);
    EXPECT_EQ(argc, 1);
  }
}

TEST(ExperimentOptions, DefaultIsSerial) {
  char a0[] = "prog";
  char* argv[] = {a0, nullptr};
  int argc = 1;
  EXPECT_EQ(core::parse_experiment_options(argc, argv).jobs, 1u);
}

TEST(DeriveSeed, DecorrelatesIndices) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 64; ++i) seen.insert(core::derive_seed(42, i));
  EXPECT_EQ(seen.size(), 64u);  // no collisions across the sweep
  // Stable: same (base, index) must give the same seed forever.
  EXPECT_EQ(core::derive_seed(42, 0), core::derive_seed(42, 0));
  EXPECT_NE(core::derive_seed(42, 0), core::derive_seed(43, 0));
}

// --- worker-count invariance on a fig7-style load sweep -----------------------

/// Everything externally observable about one trial, compared bit-exactly.
struct TrialStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t events_executed = 0;

  bool operator==(const TrialStats&) const = default;
};

/// One self-contained trial: Poisson traffic at a per-trial rate through a
/// 10 Mbps bottleneck. Private Engine/Network/RNG — no shared state.
TrialStats run_load_trial(std::size_t index, std::uint64_t seed) {
  sim::Engine engine;
  net::Network net(engine);
  const auto a = net.add_node("a");
  const auto r = net.add_node("r");
  const auto b = net.add_node("b");
  net::LinkConfig access;
  access.bandwidth_bps = 100e6;
  net::LinkConfig bottleneck;
  bottleneck.bandwidth_bps = 10e6;
  net.add_duplex_link(a, r, access);
  net.add_link(r, b, bottleneck, std::make_unique<net::DropTailQueue>(50));
  net.add_link(b, r, bottleneck);

  net::TrafficGenerator::Config cfg;
  cfg.src = a;
  cfg.dst = b;
  cfg.flow = 9;
  cfg.poisson = true;
  // Sweep from below to well above the bottleneck rate.
  cfg.rate_bps = 4e6 + 0.5e6 * static_cast<double>(index);
  net::TrafficGenerator gen(net, cfg, seed);
  gen.run_between(TimePoint::zero(), TimePoint{milliseconds(200).ns()});
  engine.run();

  const net::FlowCounters& flow = net.flow(9);
  TrialStats s;
  s.sent = flow.sent;
  s.delivered = flow.delivered;
  s.dropped = flow.dropped;
  s.delivered_bytes = flow.delivered_bytes;
  s.events_executed = engine.executed();
  return s;
}

TEST(Experiment, WorkerCountInvariance) {
  constexpr std::size_t kTrials = 32;

  auto sweep = [&](unsigned jobs) {
    core::Experiment<TrialStats> exp;
    for (std::size_t i = 0; i < kTrials; ++i) {
      exp.add("load-" + std::to_string(i), core::derive_seed(7, i),
              [i](const core::TrialSpec& spec) { return run_load_trial(i, spec.seed); });
    }
    core::ExperimentOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    return exp.run(opts);
  };

  const auto serial = sweep(1);
  ASSERT_EQ(serial.size(), kTrials);
  // The sweep actually sweeps: saturated trials drop packets, light ones don't.
  EXPECT_GT(serial.back().dropped, 0u);
  EXPECT_EQ(serial.front().dropped, 0u);
  EXPECT_GT(serial.front().delivered, 0u);

  for (const unsigned jobs : {2u, 8u}) {
    const auto parallel = sweep(jobs);
    ASSERT_EQ(parallel.size(), kTrials);
    for (std::size_t i = 0; i < kTrials; ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "trial " << i << " differs at jobs=" << jobs;
    }
  }
}

TEST(Experiment, ResultsKeepAddOrder) {
  core::Experiment<std::size_t> exp;
  for (std::size_t i = 0; i < 16; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    exp.add(name, i, [](const core::TrialSpec& s) { return s.index; });
  }
  core::ExperimentOptions opts;
  opts.jobs = 4;
  opts.progress = false;
  const auto results = exp.run(opts);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i);
}

// --- event-coalescing equivalence ---------------------------------------------

struct LinkCase {
  double loss_probability = 0.0;
  bool gated = false;  // IntServ token-bucket egress with one reserved flow
  Duration propagation = net::LinkConfig{}.propagation;
  std::uint32_t packet_bytes = net::kDefaultMtu;
};

/// One delivered packet: (flow, seq, delivery instant in ns).
using Delivery = std::tuple<net::FlowId, std::uint64_t, std::int64_t>;

struct LinkCaseStats {
  net::FlowCounters flow_a;
  net::FlowCounters flow_b;
  std::uint64_t transmitted = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t events_executed = 0;
  std::vector<Delivery> deliveries;  // in delivery order

  static bool same_flow(const net::FlowCounters& x, const net::FlowCounters& y) {
    return x.sent == y.sent && x.delivered == y.delivered && x.dropped == y.dropped &&
           x.sent_bytes == y.sent_bytes && x.delivered_bytes == y.delivered_bytes;
  }
};

/// Two flows overdriving a 10 Mbps egress for 300 ms. Flow 5 holds a
/// token-bucket reservation in the gated variant (exercising the
/// ready-delay / retry path of the transmitter service loop).
LinkCaseStats run_link_case(bool coalesced, const LinkCase& c) {
  sim::Engine engine;
  net::Network net(engine);
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 10e6;
  cfg.coalesced_events = coalesced;
  cfg.loss_probability = c.loss_probability;
  cfg.loss_seed = 99;
  cfg.propagation = c.propagation;

  std::unique_ptr<net::Queue> egress;
  if (c.gated) {
    auto q = std::make_unique<net::IntServQueue>(net::IntServQueue::Config{
        /*best_effort_capacity=*/40, /*flow_capacity=*/60, /*control_capacity=*/10,
        /*excess_to_best_effort=*/false});
    q->install_reservation(/*flow=*/5, /*rate_bps=*/4e6, /*bucket_bytes=*/6'000,
                           TimePoint::zero());
    egress = std::move(q);
  } else {
    egress = std::make_unique<net::DropTailQueue>(40);
  }
  net::Link& link = net.add_link(a, b, cfg, std::move(egress));
  net.add_link(b, a, cfg);
  LinkCaseStats s;
  net.set_receiver(b, [&](net::Packet&& p) {
    s.deliveries.emplace_back(p.flow, p.seq, engine.now().ns());
  });

  net::TrafficGenerator::Config f5;
  f5.src = a;
  f5.dst = b;
  f5.flow = 5;
  f5.packet_bytes = c.packet_bytes;
  f5.rate_bps = 8e6;
  f5.poisson = true;
  net::TrafficGenerator gen5(net, f5, /*trial_seed=*/101);

  net::TrafficGenerator::Config f6 = f5;
  f6.flow = 6;
  f6.rate_bps = 7e6;  // CBR
  f6.poisson = false;
  net::TrafficGenerator gen6(net, f6, /*trial_seed=*/202);

  const TimePoint stop{milliseconds(300).ns()};
  gen5.run_between(TimePoint::zero(), stop);
  gen6.run_between(TimePoint::zero(), stop);
  engine.run();

  s.flow_a = net.flow(5);
  s.flow_b = net.flow(6);
  s.transmitted = link.packets_transmitted();
  s.corrupted = link.packets_corrupted();
  s.events_executed = engine.executed();
  return s;
}

/// Most deliveries that fall within one propagation delay of each other:
/// the deepest the link's in-flight FIFO got.
std::size_t max_in_flight(const std::vector<Delivery>& log, Duration propagation) {
  std::size_t best = 0;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < log.size(); ++hi) {
    while (std::get<2>(log[lo]) <= std::get<2>(log[hi]) - propagation.ns()) ++lo;
    best = std::max(best, hi - lo + 1);
  }
  return best;
}

LinkCaseStats expect_equivalent(const LinkCase& c, const char* what) {
  const LinkCaseStats legacy = run_link_case(false, c);
  const LinkCaseStats coalesced = run_link_case(true, c);

  // The workload is saturating: something must actually be dropped, or the
  // case is not testing what it claims to.
  EXPECT_GT(legacy.flow_a.sent, 0u) << what;
  EXPECT_GT(legacy.flow_a.dropped + legacy.flow_b.dropped + legacy.corrupted, 0u) << what;

  EXPECT_TRUE(LinkCaseStats::same_flow(legacy.flow_a, coalesced.flow_a)) << what;
  EXPECT_TRUE(LinkCaseStats::same_flow(legacy.flow_b, coalesced.flow_b)) << what;
  EXPECT_EQ(legacy.transmitted, coalesced.transmitted) << what;
  EXPECT_EQ(legacy.corrupted, coalesced.corrupted) << what;
  // Per packet, not only in aggregate: same packets, same order, same
  // delivery instants.
  EXPECT_EQ(legacy.deliveries.size(), legacy.flow_a.delivered + legacy.flow_b.delivered)
      << what;
  EXPECT_EQ(legacy.deliveries, coalesced.deliveries) << what;
  // The point of the change: same observable outcome, fewer events.
  EXPECT_LT(coalesced.events_executed, legacy.events_executed) << what;
  return coalesced;
}

TEST(LinkCoalescing, EquivalentOnSaturatedDropTail) {
  expect_equivalent({}, "drop-tail");
}

TEST(LinkCoalescing, EquivalentWithRandomLoss) {
  LinkCase c;
  c.loss_probability = 0.05;
  expect_equivalent(c, "lossy");
}

TEST(LinkCoalescing, EquivalentWithTokenBucketGating) {
  LinkCase c;
  c.gated = true;
  expect_equivalent(c, "gated");
}

TEST(LinkCoalescing, EquivalentGatedAndLossy) {
  LinkCase c;
  c.gated = true;
  c.loss_probability = 0.03;
  expect_equivalent(c, "gated+lossy");
}

/// Propagation far longer than transmission (20 ms against 0.8 ms for a
/// 1000-byte packet at 10 Mbps) keeps about 25 packets in flight at once,
/// so every delivery pops a deep in-flight FIFO on the coalesced link.
TEST(LinkCoalescing, InFlightFifoOnLongPropagation) {
  LinkCase c;
  c.propagation = milliseconds(20);
  c.packet_bytes = 1000;
  const LinkCaseStats s = expect_equivalent(c, "long propagation");
  EXPECT_GE(max_in_flight(s.deliveries, c.propagation), 24u);
}

/// Same, with corrupted packets interleaved: they take the separate drop
/// event and must never enter the in-flight FIFO.
TEST(LinkCoalescing, InFlightFifoOnLongPropagationLossy) {
  LinkCase c;
  c.propagation = milliseconds(20);
  c.packet_bytes = 1000;
  c.loss_probability = 0.2;
  const LinkCaseStats s = expect_equivalent(c, "long propagation, lossy");
  EXPECT_GT(s.corrupted, 0u);
  EXPECT_GE(max_in_flight(s.deliveries, c.propagation), 15u);
}

/// Steady-state event cost: on a long saturated drain the coalesced
/// transmitter needs ~1 event per delivered packet vs ~2 for the legacy
/// two-event path.
TEST(LinkCoalescing, EventsPerPacketNearOne) {
  auto events_per_packet = [](bool coalesced) {
    sim::Engine engine;
    net::Network net(engine);
    const auto a = net.add_node("a");
    const auto b = net.add_node("b");
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 10e6;
    cfg.coalesced_events = coalesced;
    constexpr int kPackets = 2'000;
    net.add_link(a, b, cfg, std::make_unique<net::DropTailQueue>(kPackets));
    net.add_link(b, a, cfg);
    int delivered = 0;
    net.set_receiver(b, [&delivered](net::Packet&&) { ++delivered; });
    for (int i = 0; i < kPackets; ++i) {
      net::Packet p;
      p.dst = b;
      p.size_bytes = 1000;
      net.send(a, std::move(p));
    }
    engine.run();
    EXPECT_EQ(delivered, kPackets);
    return static_cast<double>(engine.executed()) / static_cast<double>(delivered);
  };

  EXPECT_NEAR(events_per_packet(true), 1.0, 0.05);
  EXPECT_NEAR(events_per_packet(false), 2.0, 0.05);
}

}  // namespace
