// Micro-benchmarks of the simulation substrate itself (google-benchmark):
// event-engine throughput, CPU-scheduler throughput, packet forwarding,
// link-event coalescing, the shard-parallel sweep runner, and the real
// edge-detection kernels (pixels/second of actual work). Tracked as
// BENCH_net.json from PR to PR.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json_report.hpp"
#include "core/experiment.hpp"
#include "core/feedback_scheduler.hpp"
#include "obs/telemetry.hpp"
#include "imgproc/edge.hpp"
#include "imgproc/synth.hpp"
#include "net/network.hpp"
#include "net/queue.hpp"
#include "net/traffic_gen.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aqm;

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    engine.reserve(10'000);
    int fired = 0;
    for (int i = 0; i < 10'000; ++i) {
      engine.after(microseconds(i), [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EngineEventThroughput);

void BM_CpuSchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    os::Cpu cpu(engine, "cpu");
    int done = 0;
    for (int i = 0; i < 2'000; ++i) {
      cpu.submit_for(microseconds(50), i % 16, [&done] { ++done; });
    }
    engine.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * 2'000);
}
BENCHMARK(BM_CpuSchedulerThroughput);

/// Scaling probe for the indexed scheduler: submit N mixed-priority jobs
/// up front (Arg 0 = N), optionally spread across four CPU reserves that
/// exhaust and replenish during the run (Arg 1), and drain the backlog.
/// The point is the shape, not the absolute rate: per-job scheduling cost
/// (ns_per_job) must stay roughly flat from 256 to 16384 pending jobs in
/// the plain variant — the scan-everything scheduler was quadratic here.
/// (The reserves variant is allowed to grow: each replenishment genuinely
/// re-prioritizes every job attached to the reserve, so its per-job cost
/// scales with attachment density by design.) CI asserts the plain-mode
/// flatness; run_bench.sh gates items/s floors like every other suite.
void BM_CpuSchedulerScaling(benchmark::State& state) {
  const int n_jobs = static_cast<int>(state.range(0));
  const bool with_reserves = state.range(1) != 0;
  for (auto _ : state) {
    sim::Engine engine;
    engine.reserve(1'024);
    os::Cpu cpu(engine, "cpu");
    std::array<os::ReserveId, 4> reserves{};
    if (with_reserves) {
      for (std::size_t r = 0; r < reserves.size(); ++r) {
        // Small budgets over short periods: jobs overrun, hard reserves
        // suspend and wake, soft ones demote — the expensive transitions.
        const auto id = cpu.create_reserve(
            {microseconds(200 + 100 * static_cast<std::int64_t>(r)),
             milliseconds(2 + static_cast<std::int64_t>(r)),
             /*hard=*/r % 2 == 0});
        reserves[r] = id.ok() ? id.value() : os::kNoReserve;
      }
    }
    int done = 0;
    for (int i = 0; i < n_jobs; ++i) {
      const os::ReserveId reserve =
          with_reserves && i % 4 == 0 ? reserves[static_cast<std::size_t>(i / 4) % 4]
                                      : os::kNoReserve;
      cpu.submit_for(microseconds(20), i % 32, [&done] { ++done; }, reserve);
    }
    engine.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * n_jobs);
  // Inverted rate scaled to nanoseconds per scheduled job (the 1e-9 keeps
  // the value >> the JSON reporter's 6-decimal precision). The
  // run_bench.sh gate fails if this grows >15% vs the recorded floor —
  // i.e. if per-decision cost regresses toward job-count dependence.
  state.counters["ns_per_job"] = benchmark::Counter(
      1e-9 * static_cast<double>(n_jobs) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(with_reserves ? "reserves" : "plain");
}
BENCHMARK(BM_CpuSchedulerScaling)
    ->Args({256, 0})
    ->Args({2048, 0})
    ->Args({16384, 0})
    ->Args({256, 1})
    ->Args({2048, 1})
    ->Args({16384, 1});

void BM_PacketForwarding(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    net::Network net(engine);
    const auto a = net.add_node("a");
    const auto r = net.add_node("r");
    const auto b = net.add_node("b");
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 1e9;
    net.add_duplex_link(a, r, cfg);
    net.add_duplex_link(r, b, cfg);
    int delivered = 0;
    net.set_receiver(b, [&delivered](net::Packet&&) { ++delivered; });
    for (int i = 0; i < 2'000; ++i) {
      net::Packet p;
      p.dst = b;
      p.size_bytes = 1000;
      net.send(a, std::move(p));
    }
    engine.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 2'000);
}
BENCHMARK(BM_PacketForwarding);

/// City-scale fan-in probe for the flow substrate: one IntServ egress queue
/// carrying N installed reservations (Arg 0 = N, 1k -> 256k), with traffic
/// striding across the whole flow space. The world is built once — the
/// timed region is pure steady-state forwarding, so the counter isolates
/// per-packet cost: hashed flow lookup + ready-index service on the indexed
/// table. The point is the shape, not the absolute rate: ns_per_packet must
/// stay roughly flat from 1k to 256k installed flows — the ordered-map
/// implementation walked reserved flows on the service path, linear in N.
/// CI asserts the flatness (256k within 3x of 1k); run_bench.sh gates the
/// recorded floors with the LOOSE margin used for every scaling suite.
void BM_RouterFanIn(benchmark::State& state) {
  const auto n_flows = static_cast<std::uint64_t>(state.range(0));
  constexpr int kPacketsPerIter = 1'024;

  sim::Engine engine;
  net::Network net(engine);
  const auto a = net.add_node("a");
  const auto r = net.add_node("r");
  const auto b = net.add_node("b");
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 10e9;  // fast wire: queueing dynamics, not serialization
  net.add_duplex_link(a, r, cfg);
  net::IntServQueue::Config qc;
  qc.best_effort_capacity = 4'096;
  auto intserv = std::make_unique<net::IntServQueue>(qc);
  net::IntServQueue& egress = *intserv;
  net.add_link(r, b, cfg, std::move(intserv));
  net.add_link(b, r, cfg);
  for (std::uint64_t f = 1; f <= n_flows; ++f) {
    egress.install_reservation(f, 20e3, 64'000, engine.now());
  }
  std::uint64_t delivered = 0;
  net.set_receiver(b, [&delivered](net::Packet&&) { ++delivered; });

  // Each iteration bursts one 1k-flow working set, rotated across the whole
  // space over successive iterations — every reservation sees traffic, but
  // a single burst has the locality real fan-in has. Algorithmic O(n) costs
  // (the legacy map's service scan, the admission re-sum) depend on TABLE
  // size, not on which flows are active, so the flatness gate still catches
  // them; what this avoids is measuring nothing but cold-cache misses.
  std::uint64_t base = 0;
  for (auto _ : state) {
    for (int i = 0; i < kPacketsPerIter; ++i) {
      net::Packet p;
      p.dst = b;
      p.flow = 1 + (base + static_cast<std::uint64_t>(i)) % n_flows;
      p.dscp = net::dscp::kEf;
      p.size_bytes = 1'000;
      net.send(a, std::move(p));
    }
    base += kPacketsPerIter;
    engine.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * kPacketsPerIter);
  state.counters["ns_per_packet"] = benchmark::Counter(
      1e-9 * static_cast<double>(kPacketsPerIter) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(std::to_string(n_flows) + "_flows");
}
BENCHMARK(BM_RouterFanIn)->Arg(1'024)->Arg(32'768)->Arg(262'144);

/// One FeedbackScheduler control epoch over N rate-controlled flows
/// (DESIGN.md §13): sense N hub windows, run the proportional-to-deficit
/// law, and re-stamp the IntServ reservations that moved outside the
/// hysteresis band. Alternate epochs drop half the flows' traffic so the
/// deficits genuinely oscillate and the actuation path (update_reservation
/// on a live table) is exercised, not just the dead zone. One item per
/// controlled-flow visit.
void BM_FeedbackEpoch(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  sim::Engine engine;
  obs::TelemetryHub hub;
  net::IntServQueue::Config qc;
  net::IntServQueue queue(qc);
  core::FeedbackConfig cfg;
  cfg.net_pool_bps = static_cast<double>(n) * 100e3;
  core::FeedbackScheduler fs(engine, hub, cfg);
  for (std::uint64_t f = 1; f <= n; ++f) {
    queue.install_reservation(f, 50e3, 64'000, engine.now());
    fs.control_rate(f, queue, 64'000);
  }
  fs.start();  // watches the controlled flows; epochs are stepped manually
  TimePoint now = TimePoint::zero();
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    now = now + cfg.epoch;
    const bool stress = (epoch & 1) != 0;
    for (std::uint64_t f = 1; f <= n; ++f) {
      hub.on_delivery(f, now, 1'000);
      if (stress && (f & 1) != 0) hub.on_drop(f, now);
    }
    fs.run_epoch(now);
    ++epoch;
  }
  benchmark::DoNotOptimize(fs.restamps_applied());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetLabel(std::to_string(n) + "_flows");
}
BENCHMARK(BM_FeedbackEpoch)->Arg(4)->Arg(64);

/// Price of having the adaptation loop installed but disabled: the
/// BM_RouterFanIn forwarding world (1k reserved flows, bursty fan-in) with
/// a TelemetryHub on the engine in both arms (the hub's own budget is the
/// §12 telemetry gate). Arg(1) additionally installs a FeedbackScheduler
/// registered over every flow — watched windows, controlled table — but
/// never starts it: the controller-disabled configuration every deployment
/// ships with. scripts/run_bench.sh holds Arg(1) to >= 0.98x Arg(0)
/// measured in the same run (interleaved medians): disabling the
/// controller must actually make it free, within 2% (DESIGN.md §13).
void BM_ControllerOverhead(benchmark::State& state) {
  const bool installed = state.range(0) != 0;
  constexpr std::uint64_t kFlows = 1'024;
  constexpr int kPacketsPerIter = 1'024;

  sim::Engine engine;
  net::Network net(engine);
  const auto a = net.add_node("a");
  const auto r = net.add_node("r");
  const auto b = net.add_node("b");
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 10e9;
  net.add_duplex_link(a, r, cfg);
  net::IntServQueue::Config qc;
  qc.best_effort_capacity = 4'096;
  auto intserv = std::make_unique<net::IntServQueue>(qc);
  net::IntServQueue& egress = *intserv;
  net.add_link(r, b, cfg, std::move(intserv));
  net.add_link(b, r, cfg);
  for (std::uint64_t f = 1; f <= kFlows; ++f) {
    egress.install_reservation(f, 20e3, 64'000, engine.now());
  }
  obs::TelemetryHub hub;
  engine.set_telemetry(&hub);
  std::unique_ptr<core::FeedbackScheduler> controller;
  if (installed) {
    controller = std::make_unique<core::FeedbackScheduler>(engine, hub);
    for (std::uint64_t f = 1; f <= kFlows; ++f) {
      controller->control_rate(f, egress, 64'000);
    }
    // Deliberately not started: the disabled controller must cost nothing
    // on the forwarding path.
  }
  std::uint64_t delivered = 0;
  net.set_receiver(b, [&delivered](net::Packet&&) { ++delivered; });

  std::uint64_t base = 0;
  for (auto _ : state) {
    for (int i = 0; i < kPacketsPerIter; ++i) {
      net::Packet p;
      p.dst = b;
      p.flow = 1 + (base + static_cast<std::uint64_t>(i)) % kFlows;
      p.dscp = net::dscp::kEf;
      p.size_bytes = 1'000;
      net.send(a, std::move(p));
    }
    base += kPacketsPerIter;
    engine.run();
    benchmark::DoNotOptimize(delivered);
  }
  engine.set_telemetry(nullptr);
  state.SetItemsProcessed(state.iterations() * kPacketsPerIter);
}
BENCHMARK(BM_ControllerOverhead)->Arg(0)->Arg(1);

/// A saturated 10 Mbps link draining a deep burst. Reports simulator events
/// executed per delivered packet: ~1 (the delivery; the service decision
/// piggybacks on it), against ~2 for a store-and-forward transmitter.
void BM_LinkSaturated(benchmark::State& state) {
  constexpr int kPackets = 4'000;
  std::uint64_t events = 0;
  std::uint64_t delivered_total = 0;
  for (auto _ : state) {
    sim::Engine engine;
    engine.reserve(1'024);
    net::Network net(engine);
    const auto a = net.add_node("a");
    const auto b = net.add_node("b");
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 10e6;
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
    events += engine.executed();
    delivered_total += static_cast<std::uint64_t>(delivered);
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * kPackets);
  state.counters["events_per_packet"] =
      static_cast<double>(events) / static_cast<double>(delivered_total);
}
BENCHMARK(BM_LinkSaturated);

/// One self-contained sweep trial: Poisson traffic through a two-hop path
/// with a 10 Mbps bottleneck, private engine/network/RNG per trial.
std::uint64_t run_sweep_trial(std::uint64_t seed) {
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
  net.add_duplex_link(r, b, bottleneck);

  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  net.set_receiver(b, [&](net::Packet&& p) {
    ++delivered;
    bytes += p.size_bytes;
  });

  net::TrafficGenerator::Config cfg;
  cfg.src = a;
  cfg.dst = b;
  cfg.rate_bps = 20e6;  // 2x the bottleneck: drops + queueing
  cfg.poisson = true;
  net::TrafficGenerator gen(net, cfg, seed);
  gen.run_between(TimePoint::zero(), TimePoint{milliseconds(100).ns()});
  engine.run();
  // Order-insensitive signature of the trial outcome.
  return delivered * 0x9E3779B97F4A7C15ULL + bytes;
}

/// The tentpole benchmark: a 32-trial sweep fanned out over the shard
/// runner at 1/2/4/8 workers. Real time is the metric (workers run outside
/// the timing thread); the "workers" counter records the fan-out so the
/// JSON report captures the speedup-vs-workers curve. Every worker count
/// must produce the identical aggregate — checked here on every iteration.
void BM_ParallelSweep(benchmark::State& state) {
  const auto jobs = static_cast<unsigned>(state.range(0));
  constexpr std::size_t kTrials = 32;
  constexpr std::uint64_t kBaseSeed = 977;

  // Serial reference aggregate for the invariance check.
  static const std::uint64_t reference = [] {
    std::uint64_t agg = 0;
    for (std::size_t i = 0; i < kTrials; ++i) {
      agg ^= run_sweep_trial(core::derive_seed(kBaseSeed, i)) + i;
    }
    return agg;
  }();

  for (auto _ : state) {
    core::Experiment<std::uint64_t> exp;
    for (std::size_t i = 0; i < kTrials; ++i) {
      exp.add("sweep-" + std::to_string(i), core::derive_seed(kBaseSeed, i),
              [](const core::TrialSpec& spec) { return run_sweep_trial(spec.seed); });
    }
    core::ExperimentOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    const auto results = exp.run(opts);
    std::uint64_t agg = 0;
    for (std::size_t i = 0; i < results.size(); ++i) agg ^= results[i] + i;
    if (agg != reference) {
      state.SkipWithError("parallel sweep aggregate differs from serial reference");
      return;
    }
    benchmark::DoNotOptimize(agg);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kTrials));
  state.counters["workers"] = jobs;
}
BENCHMARK(BM_ParallelSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_DiffServQueueOps(benchmark::State& state) {
  net::DiffServQueue q(100'000);
  const TimePoint t0 = TimePoint::zero();
  std::uint8_t dscps[] = {0, 10, 34, 46};
  int i = 0;
  for (auto _ : state) {
    net::Packet p;
    p.dst = 0;
    p.size_bytes = 1000;
    p.dscp = dscps[i++ % 4];
    (void)q.enqueue(std::move(p), t0);
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiffServQueueOps);

void BM_EdgeDetection(benchmark::State& state) {
  const img::GrayImage image = img::make_paper_scene(1).to_gray();
  const auto algorithm = static_cast<img::EdgeAlgorithm>(state.range(0));
  for (auto _ : state) {
    const img::GrayImage out = img::run_edge(algorithm, image);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(image.pixel_count()));
  state.SetLabel(img::to_string(algorithm));
}
BENCHMARK(BM_EdgeDetection)->Arg(0)->Arg(1)->Arg(2);  // Kirsch, Prewitt, Sobel

}  // namespace

int main(int argc, char** argv) {
  return aqm::bench::run_with_json_report(argc, argv, "net");
}
