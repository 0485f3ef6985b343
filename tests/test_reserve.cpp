// Resource-kernel CPU reserve semantics (TimeSys RK model).
#include <gtest/gtest.h>

#include <optional>

#include "os/cpu.hpp"
#include "os/load_generator.hpp"
#include "sim/engine.hpp"

namespace aqm::os {
namespace {

CpuConfig fifo_config() {
  CpuConfig cfg;
  cfg.quantum = Duration::max() - Duration{1};
  return cfg;
}

TEST(Reserve, AdmissionAcceptsWithinCap) {
  sim::Engine e;
  Cpu cpu(e, "cpu");  // default cap 0.9
  const auto r1 = cpu.create_reserve({milliseconds(40), milliseconds(100), true});
  ASSERT_TRUE(r1.ok());
  const auto r2 = cpu.create_reserve({milliseconds(40), milliseconds(100), true});
  ASSERT_TRUE(r2.ok());
  EXPECT_NEAR(cpu.reserved_utilization(), 0.8, 1e-12);
}

TEST(Reserve, AdmissionRejectsOverCap) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  ASSERT_TRUE(cpu.create_reserve({milliseconds(80), milliseconds(100), true}).ok());
  const auto r = cpu.create_reserve({milliseconds(20), milliseconds(100), true});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("admission denied"), std::string::npos);
}

TEST(Reserve, RejectsInvalidSpec) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  EXPECT_FALSE(cpu.create_reserve({milliseconds(0), milliseconds(100), true}).ok());
  EXPECT_FALSE(cpu.create_reserve({milliseconds(200), milliseconds(100), true}).ok());
  EXPECT_FALSE(cpu.create_reserve({milliseconds(10), Duration::zero(), true}).ok());
}

TEST(Reserve, DestroyFreesUtilization) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  const auto r = cpu.create_reserve({milliseconds(80), milliseconds(100), true});
  ASSERT_TRUE(r.ok());
  cpu.destroy_reserve(r.value());
  EXPECT_DOUBLE_EQ(cpu.reserved_utilization(), 0.0);
  EXPECT_TRUE(cpu.create_reserve({milliseconds(80), milliseconds(100), true}).ok());
}

TEST(Reserve, ReservedJobPreemptsHigherBasePriority) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  const auto r = cpu.create_reserve({milliseconds(50), milliseconds(100), true});
  ASSERT_TRUE(r.ok());
  std::optional<TimePoint> reserved_done;
  std::optional<TimePoint> normal_done;
  // Normal job at max base priority; reserved job at low base priority.
  cpu.submit_for(milliseconds(10), kMaxPriority, [&] { normal_done = e.now(); });
  cpu.submit_for(milliseconds(5), kMinPriority, [&] { reserved_done = e.now(); },
                 r.value());
  e.run();
  ASSERT_TRUE(reserved_done && normal_done);
  // Reserve budget (50ms) covers the whole 5ms job: it runs first.
  EXPECT_EQ(reserved_done->ns(), milliseconds(5).ns());
  EXPECT_EQ(normal_done->ns(), milliseconds(15).ns());
}

TEST(Reserve, HardReserveSuspendsOnBudgetExhaustion) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  // 10ms budget per 50ms period.
  const auto r = cpu.create_reserve({milliseconds(10), milliseconds(50), true});
  ASSERT_TRUE(r.ok());
  std::optional<TimePoint> done;
  // Needs 25ms of CPU: 10ms in period 1, 10ms in period 2, 5ms in period 3.
  cpu.submit_for(milliseconds(25), 100, [&] { done = e.now(); }, r.value());
  e.run();
  ASSERT_TRUE(done);
  // Runs [0,10), suspends until 50, runs [50,60), suspends until 100,
  // finishes at 105.
  EXPECT_EQ(done->ns(), milliseconds(105).ns());
}

TEST(Reserve, SoftReserveFallsBackToBasePriority) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  const auto r = cpu.create_reserve({milliseconds(10), milliseconds(100), false});
  ASSERT_TRUE(r.ok());
  std::optional<TimePoint> done;
  // 25ms of work with only 10ms of budget: after exhaustion the job
  // continues at its base priority on the idle CPU.
  cpu.submit_for(milliseconds(25), 100, [&] { done = e.now(); }, r.value());
  e.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(done->ns(), milliseconds(25).ns());
}

TEST(Reserve, GuaranteesBudgetUnderSaturatingLoad) {
  sim::Engine e;
  CpuConfig cfg;
  cfg.quantum = milliseconds(10);
  Cpu cpu(e, "cpu", cfg);
  const auto r = cpu.create_reserve({milliseconds(20), milliseconds(100), true});
  ASSERT_TRUE(r.ok());

  // Saturating competing work at max priority.
  std::function<void()> refill = [&] {
    cpu.submit_for(milliseconds(50), kMaxPriority, [&] { refill(); });
  };
  refill();

  std::optional<TimePoint> done;
  // 60ms of reserved work at 20ms/100ms: needs 3 periods.
  cpu.submit_for(milliseconds(60), kMinPriority, [&] { done = e.now(); }, r.value());
  e.run_until(TimePoint{milliseconds(400).ns()});
  ASSERT_TRUE(done);
  // Periods: [0,100) 20ms, [100,200) 20ms, [200,220] final 20ms.
  EXPECT_LE(done->ns(), milliseconds(225).ns());
}

TEST(Reserve, BudgetReplenishesEachPeriod) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  const auto r = cpu.create_reserve({milliseconds(10), milliseconds(20), true});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(cpu.reserve_budget(r.value()).ns(), milliseconds(10).ns());
  cpu.submit_for(milliseconds(10), 100, [] {}, r.value());
  e.run_until(TimePoint{milliseconds(15).ns()});
  EXPECT_EQ(cpu.reserve_budget(r.value()).ns(), 0);
  e.run_until(TimePoint{milliseconds(21).ns()});
  EXPECT_EQ(cpu.reserve_budget(r.value()).ns(), milliseconds(10).ns());
}

TEST(Reserve, DestroyWhileJobAttachedDemotesJob) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  const auto r = cpu.create_reserve({milliseconds(50), milliseconds(100), true});
  ASSERT_TRUE(r.ok());
  std::optional<TimePoint> reserved_done;
  std::optional<TimePoint> normal_done;
  cpu.submit_for(milliseconds(20), 10, [&] { reserved_done = e.now(); }, r.value());
  cpu.submit_for(milliseconds(10), 100, [&] { normal_done = e.now(); });
  // Kill the reserve after 5ms: the reserved job drops to base prio 10 and
  // the normal prio-100 job takes over.
  e.after(milliseconds(5), [&] { cpu.destroy_reserve(r.value()); });
  e.run();
  ASSERT_TRUE(reserved_done && normal_done);
  EXPECT_EQ(normal_done->ns(), milliseconds(15).ns());
  EXPECT_EQ(reserved_done->ns(), milliseconds(30).ns());
}

TEST(Reserve, RefusesAPeriodThatOverflowsTheClock) {
  sim::Engine e;
  Cpu cpu(e, "cpu", fifo_config());
  e.run_until(TimePoint{seconds(1).ns()});
  // At t = 1 s the end of a Duration::max() period lies past the clock.
  const auto overflowing = cpu.create_reserve({nanoseconds(1), Duration::max(), true});
  ASSERT_FALSE(overflowing.ok());
  EXPECT_NE(overflowing.error().find("overflows the clock"), std::string::npos);
  EXPECT_DOUBLE_EQ(cpu.reserved_utilization(), 0.0);

  const auto r = cpu.create_reserve({milliseconds(10), milliseconds(100), true});
  ASSERT_TRUE(r.ok());
  const auto resized = cpu.update_reserve(r.value(), {nanoseconds(1), Duration::max(), true});
  ASSERT_FALSE(resized.ok());
  EXPECT_NE(resized.error().find("overflows the clock"), std::string::npos);
  EXPECT_DOUBLE_EQ(cpu.reserved_utilization(), 0.1);

  // The reserve keeps its spec and schedules its job on time.
  std::optional<TimePoint> done;
  cpu.submit_for(milliseconds(5), 10, [&] { done = e.now(); }, r.value());
  e.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(done->ns(), (seconds(1) + milliseconds(5)).ns());
}

TEST(Reserve, UnknownReserveBudgetIsZero) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  EXPECT_EQ(cpu.reserve_budget(99).ns(), 0);
  EXPECT_FALSE(cpu.has_reserve(99));
}

TEST(LoadGenerator, OfferedUtilizationMatchesConfig) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  LoadGenerator::Config cfg;
  cfg.burst_mean = milliseconds(20);
  cfg.interval_mean = milliseconds(80);
  LoadGenerator load(e, cpu, cfg, /*seed=*/1);
  EXPECT_NEAR(load.offered_utilization(), 0.25, 1e-12);
}

TEST(LoadGenerator, GeneratesApproximatelyConfiguredLoad) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  LoadGenerator::Config cfg;
  cfg.priority = 100;
  cfg.burst_mean = milliseconds(10);
  cfg.interval_mean = milliseconds(40);
  LoadGenerator load(e, cpu, cfg, /*seed=*/7);
  load.start();
  e.run_until(TimePoint{seconds(20).ns()});
  load.stop();
  // ~25% utilization requested; CPU otherwise idle, so it should be close.
  EXPECT_NEAR(cpu.utilization(), 0.25, 0.05);
  EXPECT_GT(load.bursts_submitted(), 400u);
}

TEST(LoadGenerator, StopHaltsSubmission) {
  sim::Engine e;
  Cpu cpu(e, "cpu");
  LoadGenerator::Config cfg;
  cfg.burst_mean = milliseconds(1);
  cfg.interval_mean = milliseconds(10);
  LoadGenerator load(e, cpu, cfg, /*seed=*/1);
  load.start();
  e.run_until(TimePoint{seconds(1).ns()});
  load.stop();
  const auto count = load.bursts_submitted();
  e.run_until(TimePoint{seconds(2).ns()});
  EXPECT_EQ(load.bursts_submitted(), count);
}

}  // namespace
}  // namespace aqm::os
