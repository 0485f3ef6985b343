// Property-style parameterized sweeps over the core invariants:
//  * scheduler: work conservation, priority ordering, reserve guarantees
//  * token bucket: long-run rate never exceeds the configured rate
//  * IntServ: a reserved flow's goodput >= min(offered, reserved) under load
//  * priority/DSCP mappings: monotonicity and round-trip sanity
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "net/queue.hpp"
#include "net/traffic_gen.hpp"
#include "orb/rt/dscp_mapping.hpp"
#include "orb/rt/priority_mapping.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

namespace aqm {
namespace {

// --- scheduler properties ---------------------------------------------------------

class SchedulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerProperty, WorkIsConservedAcrossRandomWorkloads) {
  sim::Engine engine;
  os::Cpu cpu(engine, "cpu");
  Rng rng(GetParam());
  std::int64_t total_work_ns = 0;
  int completed = 0;
  int jobs = 0;
  for (int i = 0; i < 60; ++i) {
    const auto arrival = Duration{rng.uniform_int(0, seconds(1).ns())};
    const auto cost = Duration{rng.uniform_int(microseconds(10).ns(), milliseconds(20).ns())};
    const auto prio = static_cast<os::Priority>(rng.uniform_int(0, 255));
    total_work_ns += cost.ns();
    ++jobs;
    engine.after(arrival, [&cpu, cost, prio, &completed] {
      cpu.submit_for(cost, prio, [&completed] { ++completed; });
    });
  }
  engine.run();
  EXPECT_EQ(completed, jobs);
  // All submitted CPU time is accounted as busy time (tolerance: integer
  // rounding of one cycle per job).
  EXPECT_NEAR(static_cast<double>(cpu.busy_time().ns()),
              static_cast<double>(total_work_ns), 100.0);
}

TEST_P(SchedulerProperty, TraceNeverRunsLowWhileHigherWaits) {
  sim::Engine engine;
  os::CpuConfig cfg;
  cfg.quantum = Duration::max() - Duration{1};  // strict FIFO within priority
  os::Cpu cpu(engine, "cpu", cfg);
  cpu.enable_trace(true);
  Rng rng(GetParam() + 1000);

  // Reconstruct runnable intervals: job -> [arrival, completion).
  struct JobInfo {
    TimePoint arrival;
    TimePoint completion;
    os::Priority priority;
  };
  std::map<os::JobId, std::shared_ptr<JobInfo>> info;
  for (int i = 0; i < 40; ++i) {
    const auto arrival = Duration{rng.uniform_int(0, milliseconds(500).ns())};
    const auto cost = Duration{rng.uniform_int(microseconds(100).ns(), milliseconds(10).ns())};
    const auto prio = static_cast<os::Priority>(rng.uniform_int(0, 10));
    engine.after(arrival, [&, cost, prio] {
      auto rec = std::make_shared<JobInfo>(JobInfo{engine.now(), TimePoint::max(), prio});
      const os::JobId id =
          cpu.submit_for(cost, prio, [&engine, rec] { rec->completion = engine.now(); });
      info[id] = rec;
    });
  }
  engine.run();

  // For every run slice of priority p, no job with higher priority may be
  // runnable (arrived, not yet completed) during that slice.
  for (const auto& slice : cpu.trace()) {
    if (slice.boosted) continue;
    for (const auto& [id, job] : info) {
      if (id == slice.job) continue;
      if (job->priority <= slice.effective_priority) continue;
      const bool overlaps =
          job->arrival < slice.end && job->completion > slice.start + Duration{1};
      EXPECT_FALSE(overlaps) << "priority inversion: job " << id << " (prio "
                             << job->priority << ") runnable while slice of prio "
                             << slice.effective_priority << " ran";
    }
  }
}

TEST_P(SchedulerProperty, ReserveReceivesItsBudgetEveryPeriod) {
  sim::Engine engine;
  os::Cpu cpu(engine, "cpu");
  cpu.enable_trace(true);
  Rng rng(GetParam() + 2000);

  const Duration compute = milliseconds(static_cast<std::int64_t>(rng.uniform_int(5, 20)));
  const Duration period = milliseconds(100);
  const auto reserve = cpu.create_reserve({compute, period, true});
  ASSERT_TRUE(reserve.ok());

  // Saturating interference.
  std::function<void()> refill = [&] {
    cpu.submit_for(milliseconds(37), os::kMaxPriority, [&] { refill(); });
  };
  refill();

  // Reserved work queue: always backlogged.
  std::function<void()> reserved_refill = [&] {
    cpu.submit_for(milliseconds(250), 10, [&] { reserved_refill(); }, reserve.value());
  };
  reserved_refill();

  const int periods = 10;
  engine.run_until(TimePoint{(period * periods).ns()});

  // Sum boosted run time per period: must equal the budget in every full
  // period (the workload is backlogged).
  std::vector<std::int64_t> per_period(periods, 0);
  for (const auto& slice : cpu.trace()) {
    if (!slice.boosted) continue;
    const auto p = static_cast<std::size_t>(slice.start.ns() / period.ns());
    if (p < per_period.size()) per_period[p] += (slice.end - slice.start).ns();
  }
  for (int p = 0; p < periods; ++p) {
    EXPECT_NEAR(static_cast<double>(per_period[static_cast<std::size_t>(p)]),
                static_cast<double>(compute.ns()), 1000.0)
        << "period " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty, ::testing::Values(1, 2, 3, 4, 5));

// --- token bucket / IntServ properties -------------------------------------------

class RateProperty : public ::testing::TestWithParam<double> {};

TEST_P(RateProperty, ReservedFlowGoodputHonorsReservationUnderOverload) {
  const double reserved_bps = GetParam();
  sim::Engine engine;
  net::Network network(engine);
  const auto src = network.add_node("src");
  const auto dst = network.add_node("dst");
  const auto load_src = network.add_node("load");
  net::LinkConfig bottleneck;
  bottleneck.bandwidth_bps = 10e6;
  auto queue = std::make_unique<net::IntServQueue>(net::IntServQueue::Config{});
  queue->install_reservation(5, reserved_bps, 32'000, TimePoint::zero());
  network.add_link(src, dst, bottleneck, std::move(queue));
  network.add_link(dst, src, bottleneck);
  net::LinkConfig access;
  access.bandwidth_bps = 100e6;
  network.add_duplex_link(load_src, src, access);

  // Reserved flow offers 2x its reservation; load saturates the link.
  net::TrafficGenerator::Config video;
  video.src = src;
  video.dst = dst;
  video.rate_bps = reserved_bps * 2;
  video.flow = 5;
  net::TrafficGenerator video_gen(network, video);

  net::TrafficGenerator::Config load;
  load.src = load_src;
  load.dst = dst;
  load.rate_bps = 40e6;
  load.flow = 6;
  net::TrafficGenerator load_gen(network, load);

  video_gen.start();
  load_gen.start();
  engine.run_until(TimePoint{seconds(10).ns()});
  video_gen.stop();
  load_gen.stop();

  const double delivered_bps =
      static_cast<double>(network.flow(5).delivered_bytes) * 8.0 / 10.0;
  // Policing guarantees at least the reservation; demoted excess may
  // scavenge leftover best-effort capacity on top.
  EXPECT_GE(delivered_bps, reserved_bps * 0.9);
  EXPECT_LE(delivered_bps, reserved_bps * 2.0 + 0.1e6);
}

INSTANTIATE_TEST_SUITE_P(Rates, RateProperty, ::testing::Values(0.5e6, 1e6, 2e6, 4e6));

// --- mapping properties ------------------------------------------------------------

class MappingProperty : public ::testing::TestWithParam<int> {};

TEST_P(MappingProperty, LinearPriorityMappingIsMonotone) {
  orb::rt::PriorityMapping mapping;
  const int step = GetParam();
  os::Priority last = os::kMinPriority;
  for (orb::CorbaPriority p = 0; p <= orb::kMaxCorbaPriority; p += step) {
    const os::Priority native = mapping.to_native(p);
    EXPECT_GE(native, last);
    EXPECT_GE(native, os::kMinPriority);
    EXPECT_LE(native, os::kMaxPriority);
    last = native;
  }
  EXPECT_EQ(mapping.to_native(0), os::kMinPriority);
  EXPECT_EQ(mapping.to_native(orb::kMaxCorbaPriority), os::kMaxPriority);
}

TEST_P(MappingProperty, RoundTripStaysClose) {
  orb::rt::PriorityMapping mapping;
  const int step = GetParam();
  for (orb::CorbaPriority p = 0; p <= orb::kMaxCorbaPriority; p += step) {
    const orb::CorbaPriority back = mapping.to_corba(mapping.to_native(p));
    // 255 native levels over 32768 CORBA levels: quantization <= 1 step.
    EXPECT_NEAR(back, p, 32767.0 / 255.0 + 1.0);
  }
}

TEST_P(MappingProperty, BandedDscpIsMonotoneInServiceClass) {
  constexpr auto mapping = orb::rt::DscpMapping::banded();
  const int step = GetParam();
  auto rank = [](net::Dscp d) {
    return static_cast<int>(net::kPhbClassCount) -
           static_cast<int>(net::classify(d));  // higher = better service
  };
  int last = rank(net::dscp::kBestEffort);
  for (orb::CorbaPriority p = 0; p <= orb::kMaxCorbaPriority; p += step) {
    const int r = rank(mapping.to_dscp(p));
    EXPECT_GE(r, last);
    last = r;
  }
}

INSTANTIATE_TEST_SUITE_P(Steps, MappingProperty, ::testing::Values(1, 7, 97, 1013));

}  // namespace
}  // namespace aqm
