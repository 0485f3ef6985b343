#include "os/cpu.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace aqm::os {
namespace {

CpuConfig fifo_config() {
  CpuConfig cfg;
  cfg.quantum = Duration::max() - Duration{1};  // effectively run-to-completion
  return cfg;
}

TEST(Cpu, SingleJobTakesItsDuration) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  std::optional<TimePoint> done;
  cpu.submit_for(milliseconds(10), 100, [&] { done = e.now(); });
  e.run();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->ns(), milliseconds(10).ns());
}

TEST(Cpu, CyclesMapToTimeAtHz) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  std::optional<TimePoint> done;
  cpu.submit(1'000'000, 100, [&] { done = e.now(); });  // 1M cycles @ 1 GHz = 1 ms
  e.run();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->ns(), milliseconds(1).ns());
}

TEST(Cpu, HigherPriorityPreemptsImmediately) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  std::optional<TimePoint> low_done;
  std::optional<TimePoint> high_done;
  cpu.submit_for(milliseconds(10), 10, [&] { low_done = e.now(); });
  e.after(milliseconds(2), [&] {
    cpu.submit_for(milliseconds(4), 200, [&] { high_done = e.now(); });
  });
  e.run();
  // High arrives at 2ms, runs 4ms -> done at 6ms. Low resumes and finishes
  // its remaining 8ms at 14ms.
  ASSERT_TRUE(high_done && low_done);
  EXPECT_EQ(high_done->ns(), milliseconds(6).ns());
  EXPECT_EQ(low_done->ns(), milliseconds(14).ns());
}

TEST(Cpu, EqualPriorityFifoWithoutQuantum) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  std::vector<int> order;
  cpu.submit_for(milliseconds(5), 50, [&] { order.push_back(1); });
  cpu.submit_for(milliseconds(5), 50, [&] { order.push_back(2); });
  cpu.submit_for(milliseconds(5), 50, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now().ns(), milliseconds(15).ns());
}

TEST(Cpu, RoundRobinSharesWithinPriority) {
  sim::Engine e;
  CpuConfig cfg;
  cfg.quantum = milliseconds(1);
  Cpu cpu(e, "cpu", cfg);
  std::optional<TimePoint> a_done;
  std::optional<TimePoint> b_done;
  cpu.submit_for(milliseconds(5), 50, [&] { a_done = e.now(); });
  cpu.submit_for(milliseconds(5), 50, [&] { b_done = e.now(); });
  e.run();
  ASSERT_TRUE(a_done && b_done);
  // Interleaved 1ms slices: A finishes around 9ms, B at 10ms — far from
  // the FIFO outcome (5ms, 10ms).
  EXPECT_GT(a_done->ns(), milliseconds(8).ns());
  EXPECT_EQ(b_done->ns(), milliseconds(10).ns());
}

TEST(Cpu, LowerPriorityWaitsForIdle) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  std::vector<int> order;
  cpu.submit_for(milliseconds(3), 100, [&] { order.push_back(1); });
  cpu.submit_for(milliseconds(3), 10, [&] { order.push_back(2); });
  cpu.submit_for(milliseconds(3), 50, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Cpu, CancelPendingJob) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  bool ran = false;
  cpu.submit_for(milliseconds(5), 100, [] {});
  const JobId waiting = cpu.submit_for(milliseconds(5), 50, [&] { ran = true; });
  EXPECT_TRUE(cpu.cancel(waiting));
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.now().ns(), milliseconds(5).ns());
}

TEST(Cpu, CancelRunningJobFreesCpu) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  bool long_ran = false;
  std::optional<TimePoint> short_done;
  const JobId long_job = cpu.submit_for(milliseconds(100), 100, [&] { long_ran = true; });
  cpu.submit_for(milliseconds(5), 50, [&] { short_done = e.now(); });
  e.after(milliseconds(2), [&] { EXPECT_TRUE(cpu.cancel(long_job)); });
  e.run();
  EXPECT_FALSE(long_ran);
  ASSERT_TRUE(short_done);
  EXPECT_EQ(short_done->ns(), milliseconds(7).ns());
}

TEST(Cpu, CancelUnknownJobReturnsFalse) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  EXPECT_FALSE(cpu.cancel(12345));
}

TEST(Cpu, BasePriorityReportsLiveJobsOnly) {
  // os::LoadGenerator prunes its in-flight list with this: a live job
  // reports its submit priority, a finished or cancelled one reports none.
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  const auto reserve = cpu.create_reserve({milliseconds(1), milliseconds(10), true});
  ASSERT_TRUE(reserve.ok());
  const JobId high = cpu.submit_for(milliseconds(5), 100, [] {});
  const JobId low = cpu.submit_for(milliseconds(5), 50, [] {});
  const JobId boosted = cpu.submit_for(milliseconds(5), 7, [] {}, reserve.value());
  EXPECT_EQ(cpu.base_priority(high), std::optional<Priority>(100));
  EXPECT_EQ(cpu.base_priority(low), std::optional<Priority>(50));
  EXPECT_EQ(cpu.base_priority(boosted), std::optional<Priority>(7));  // not the boost

  EXPECT_TRUE(cpu.cancel(low));
  EXPECT_EQ(cpu.base_priority(low), std::nullopt);
  e.run();
  EXPECT_EQ(cpu.base_priority(high), std::nullopt);
  EXPECT_EQ(cpu.base_priority(boosted), std::nullopt);
  EXPECT_EQ(cpu.base_priority(12345), std::nullopt);
}

TEST(Cpu, CompletionCallbackMaySubmit) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  std::optional<TimePoint> second_done;
  cpu.submit_for(milliseconds(2), 50, [&] {
    cpu.submit_for(milliseconds(3), 50, [&] { second_done = e.now(); });
  });
  e.run();
  ASSERT_TRUE(second_done);
  EXPECT_EQ(second_done->ns(), milliseconds(5).ns());
}

TEST(Cpu, BusyTimeAccountsAllWork) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  cpu.submit_for(milliseconds(4), 10, [] {});
  cpu.submit_for(milliseconds(6), 90, [] {});
  e.run();
  EXPECT_EQ(cpu.busy_time().ns(), milliseconds(10).ns());
}

TEST(Cpu, UtilizationUnderIdleGaps) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  cpu.submit_for(milliseconds(5), 50, [] {});
  e.after(milliseconds(15), [] {});  // extend the run to 15ms wall
  e.run();
  EXPECT_NEAR(cpu.utilization(), 5.0 / 15.0, 1e-9);
}

TEST(Cpu, RunningPriorityReflectsCurrentJob) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  EXPECT_FALSE(cpu.running_priority().has_value());
  cpu.submit_for(milliseconds(5), 77, [] {});
  e.after(milliseconds(1), [&] {
    ASSERT_TRUE(cpu.running_priority().has_value());
    EXPECT_EQ(*cpu.running_priority(), 77);
  });
  e.run();
}

TEST(Cpu, TraceRecordsPreemption) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  cpu.enable_trace(true);
  cpu.submit_for(milliseconds(10), 10, [] {});
  e.after(milliseconds(3), [&] { cpu.submit_for(milliseconds(2), 100, [] {}); });
  e.run();
  const auto& trace = cpu.trace();
  ASSERT_GE(trace.size(), 3u);
  // Slice 1: low job 0-3ms; slice 2: high job 3-5ms; slice 3: low 5-12ms.
  EXPECT_EQ(trace[0].effective_priority, 10);
  EXPECT_EQ(trace[0].end.ns(), milliseconds(3).ns());
  EXPECT_EQ(trace[1].effective_priority, 100);
  EXPECT_EQ(trace[1].end.ns(), milliseconds(5).ns());
  EXPECT_EQ(trace[2].end.ns(), milliseconds(12).ns());
}

TEST(Cpu, ZeroCostJobCompletesImmediately) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  bool done = false;
  cpu.submit(0, 100, [&] { done = true; });
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), TimePoint::zero());
}

TEST(Cpu, ReplenishInstantsAtASharedBoundaryComeOutInReserveIdOrder) {
  sim::Engine e;
  obs::TraceRecorder tr(static_cast<std::uint32_t>(obs::TraceCategory::Os));
  e.set_tracer(&tr);
  Cpu cpu(e, "cpu", fifo_config());
  // Periods of 10, 5 and 2 ms all end at 10 ms and at 20 ms.
  const auto r1 = cpu.create_reserve({milliseconds(1), milliseconds(10), true});
  const auto r2 = cpu.create_reserve({milliseconds(1), milliseconds(5), true});
  const auto r3 = cpu.create_reserve({milliseconds(1), milliseconds(2), true});
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());

  // 2.5 ms of work on the first hard reserve runs 1 ms per 10 ms period:
  // [0, 1], [10, 11] and [20, 20.5] ms. Only its wakes roll the periods.
  std::optional<TimePoint> done;
  cpu.submit_for(microseconds(2'500), 10, [&] { done = e.now(); }, r1.value());
  e.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(done->ns(), (milliseconds(20) + microseconds(500)).ns());

  std::vector<std::pair<std::int64_t, double>> replenished;  // (ns, reserve id)
  tr.for_each([&](const obs::TraceEvent& ev) {
    if (std::string_view(ev.name) == "reserve.replenish") {
      replenished.emplace_back(ev.ts_ns, ev.args[0].value);
    }
  });
  const std::int64_t t10 = milliseconds(10).ns();
  const std::int64_t t20 = milliseconds(20).ns();
  const std::vector<std::pair<std::int64_t, double>> expected = {
      {t10, 1.0}, {t10, 2.0}, {t10, 3.0}, {t20, 1.0}, {t20, 2.0}, {t20, 3.0}};
  EXPECT_EQ(replenished, expected);

  // Live reserves with no attached job arm no wake: the engine drained at
  // the last completion.
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.now(), *done);
  EXPECT_TRUE(cpu.has_reserve(r3.value()));
}

}  // namespace
}  // namespace aqm::os
