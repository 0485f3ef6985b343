// Tests for the shard-parallel experiment runner:
//  * ParallelRunner mechanics: full coverage of indices, exception
//    propagation out of worker threads, inline fallback.
//  * parse_experiment_options / derive_seed helpers.
//  * Worker-count invariance: a 32-trial load sweep produces bit-identical
//    per-trial results at 1, 2 and 8 workers (the determinism contract).
//  * Sidecars: Experiment::run writes every requested file, byte-identical
//    at 1 and 4 workers, and exits 1 when one cannot be written.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "net/network.hpp"
#include "net/queue.hpp"
#include "net/traffic_gen.hpp"
#include "obs/metrics.hpp"
#include "obs/sidecar.hpp"
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
  const auto opts = core::parse_experiment_options(argc, argv, core::kNoSidecars);
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
    core::parse_experiment_options(argc, argv.data(), core::kNoSidecars);
  };
  EXPECT_EXIT(parse({"prog", "--partitions", "2"}), ::testing::ExitedWithCode(2),
              "unknown argument: --partitions.*usage: prog");
  EXPECT_EXIT(parse({"prog", "--jobs", "2", "--jbos=4"}), ::testing::ExitedWithCode(2),
              "unknown argument: --jbos=4.*usage: prog");
}

TEST(ExperimentOptions, RejectsUndeclaredSidecarFlags) {
  const auto parse = [](unsigned sidecars, std::vector<std::string> args) {
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    int argc = static_cast<int>(args.size());
    return core::parse_experiment_options(argc, argv.data(), sidecars);
  };

  // Declared sidecars parse in both spellings.
  const auto all = parse(core::kAllSidecars, {"prog", "--trace", "t.json", "--metrics=m.json",
                                              "--slo", "s.json", "--flight=f.json"});
  EXPECT_EQ(all.trace_path, "t.json");
  EXPECT_EQ(all.metrics_path, "m.json");
  EXPECT_EQ(all.slo_path, "s.json");
  EXPECT_EQ(all.flight_path, "f.json");

  // A driver that writes no sidecar rejects every sidecar flag, and the
  // usage line lists only what it accepts.
  for (const char* flag : {"--trace", "--metrics", "--slo", "--flight"}) {
    EXPECT_EXIT(parse(core::kNoSidecars, {"prog", flag, "out.json"}),
                ::testing::ExitedWithCode(2),
                std::string("unsupported argument: ") + flag + "\nusage: prog \\[--jobs N\\]\n$");
  }
  // A partial declaration (city_scale: metrics + SLO) keeps the declared
  // flags and rejects the others, in either spelling.
  const unsigned metrics_slo = core::kMetricsSidecar | core::kSloSidecar;
  EXPECT_EQ(parse(metrics_slo, {"prog", "--slo=h.json"}).slo_path, "h.json");
  EXPECT_EXIT(parse(metrics_slo, {"prog", "--trace=t.json"}), ::testing::ExitedWithCode(2),
              "unsupported argument: --trace=t.json\nusage: prog \\[--jobs N\\] "
              "\\[--metrics FILE\\] \\[--slo FILE\\]\n$");
  EXPECT_EXIT(parse(metrics_slo, {"prog", "--jobs", "2", "--flight", "f.json"}),
              ::testing::ExitedWithCode(2), "unsupported argument: --flight\n");
  // A near-miss of a declared flag is an unknown argument, not a prefix match.
  EXPECT_EXIT(parse(core::kAllSidecars, {"prog", "--tracefile", "t.json"}),
              ::testing::ExitedWithCode(2), "unknown argument: --tracefile\n");
}

TEST(ExperimentOptions, ParsesCompactForms) {
  {
    char a0[] = "prog", a1[] = "-j8";
    char* argv[] = {a0, a1, nullptr};
    int argc = 2;
    EXPECT_EQ(core::parse_experiment_options(argc, argv, core::kNoSidecars).jobs, 8u);
    EXPECT_EQ(argc, 1);
  }
  {
    char a0[] = "prog", a1[] = "--jobs=5";
    char* argv[] = {a0, a1, nullptr};
    int argc = 2;
    EXPECT_EQ(core::parse_experiment_options(argc, argv, core::kNoSidecars).jobs, 5u);
    EXPECT_EQ(argc, 1);
  }
}

TEST(ExperimentOptions, DefaultIsSerial) {
  char a0[] = "prog";
  char* argv[] = {a0, nullptr};
  int argc = 1;
  EXPECT_EQ(core::parse_experiment_options(argc, argv, core::kNoSidecars).jobs, 1u);
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

/// Poisson traffic of flow 9 at `rate_bps` from a to b through a 10 Mbps
/// bottleneck, run to completion on `engine`.
void run_bottleneck(sim::Engine& engine, net::Network& net, double rate_bps,
                    std::uint64_t seed) {
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
  cfg.rate_bps = rate_bps;
  net::TrafficGenerator gen(net, cfg, seed);
  gen.run_between(TimePoint::zero(), TimePoint{milliseconds(200).ns()});
  engine.run();
}

/// One self-contained trial: Poisson traffic at a per-trial rate through a
/// 10 Mbps bottleneck. Private Engine/Network/RNG — no shared state.
TrialStats run_load_trial(std::size_t index, std::uint64_t seed) {
  sim::Engine engine;
  net::Network net(engine);
  // Sweep from below to well above the bottleneck rate.
  run_bottleneck(engine, net, 4e6 + 0.5e6 * static_cast<double>(index), seed);

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

// --- sidecars written by Experiment::run ---------------------------------------

/// A trial result carrying its sidecar bundle, the way drivers return them.
struct ObservedTrial {
  unsigned sidecars = core::kNoSidecars;  // the set the trial's spec carried
  obs::TrialObs obs;
};

/// The load trial observed through core::TrialObserver: flow 9 runs under
/// a 1% drop-rate SLO, which the overloaded trials breach.
ObservedTrial run_observed_trial(const core::TrialSpec& spec) {
  sim::Engine engine;
  net::Network net(engine);
  core::TrialObserver observer(engine, spec.sidecars);
  if (obs::TelemetryHub* hub = observer.hub()) {
    obs::SloSpec slo;
    slo.max_drop_rate = 0.01;
    hub->set_slo(9, slo);
  }
  run_bottleneck(engine, net, 8e6 + 4e6 * static_cast<double>(spec.index), spec.seed);
  ObservedTrial out;
  out.sidecars = spec.sidecars;
  observer.finish(out.obs);
  if (observer.wants(core::kMetricsSidecar)) {
    obs::MetricsRegistry reg;
    net.export_metrics(reg, "net");
    out.obs.metrics = reg.snapshot();
  }
  return out;
}

core::Experiment<ObservedTrial> observed_experiment() {
  core::Experiment<ObservedTrial> exp;
  for (std::size_t i = 0; i < 3; ++i) {
    exp.add("observed-" + std::to_string(i), core::derive_seed(11, i), run_observed_trial);
  }
  return exp;
}

std::string take_file(const std::string& path) {
  std::ostringstream text;
  text << std::ifstream(path, std::ios::binary).rdbuf();
  std::remove(path.c_str());
  return text.str();
}

TEST(Experiment, WritesRequestedSidecarsIdenticallyForAnyJobs) {
  const auto run = [](unsigned jobs) {
    const std::string base = ::testing::TempDir() + "experiment_j" + std::to_string(jobs);
    core::ExperimentOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    opts.trace_path = base + ".trace.json";
    opts.metrics_path = base + ".metrics.json";
    opts.slo_path = base + ".slo.json";
    opts.flight_path = base + ".flight.json";
    auto results = observed_experiment().run(opts);
    std::vector<std::string> files{take_file(opts.trace_path), take_file(opts.metrics_path),
                                   take_file(opts.slo_path), take_file(opts.flight_path)};
    return std::make_pair(std::move(results), std::move(files));
  };
  const auto [serial, serial_files] = run(1);
  const auto [parallel, parallel_files] = run(4);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  EXPECT_EQ(serial_files, parallel_files);

  // Every trial sees the requested set; only trial 0 records the trace.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const unsigned expected =
        i == 0 ? core::kAllSidecars : core::kAllSidecars & ~core::kTraceSidecar;
    EXPECT_EQ(serial[i].sidecars, expected) << "trial " << i;
    EXPECT_EQ(parallel[i].sidecars, expected) << "trial " << i;
    EXPECT_EQ(serial[i].obs.trace != nullptr, i == 0) << "trial " << i;
  }

  // The files hold what the trials observed.
  const std::string& metrics = serial_files[1];
  const std::string& slo = serial_files[2];
  const std::string& flight = serial_files[3];
  EXPECT_NE(serial_files[0].find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(metrics.find("\"observed-2\""), std::string::npos);
  EXPECT_NE(metrics.find("\"merged\""), std::string::npos);
  EXPECT_NE(slo.find("\"breach\""), std::string::npos);
  EXPECT_NE(flight.find("\"trial\":\"observed-"), std::string::npos);
}

TEST(Experiment, UnwritableSidecarPathExitsWithOne) {
  const auto run = [] {
    core::ExperimentOptions opts;
    opts.progress = false;
    opts.metrics_path = "/nonexistent-dir/metrics.json";
    (void)observed_experiment().run(opts);
  };
  EXPECT_EXIT(run(), ::testing::ExitedWithCode(1),
              "failed to write metrics sidecar to /nonexistent-dir/metrics.json");
}

}  // namespace
