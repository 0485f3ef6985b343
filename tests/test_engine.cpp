#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace aqm::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), TimePoint::zero());
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.after(milliseconds(30), [&] { order.push_back(3); });
  e.after(milliseconds(10), [&] { order.push_back(1); });
  e.after(milliseconds(20), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now().ns(), milliseconds(30).ns());
}

TEST(Engine, SameTimeFiresInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.after(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine e;
  TimePoint seen;
  e.after(microseconds(123), [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen.ns(), 123'000);
}

TEST(Engine, HandlersCanScheduleMoreEvents) {
  Engine e;
  int fired = 0;
  e.after(milliseconds(1), [&] {
    ++fired;
    e.after(milliseconds(1), [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now().ns(), milliseconds(2).ns());
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  const EventId id = e.after(milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, CancelInvalidIdIsNoop) {
  Engine e;
  EXPECT_FALSE(e.cancel(EventId{}));
  EXPECT_FALSE(e.cancel(EventId{9999}));
}

TEST(Engine, CancelTwiceReturnsFalse) {
  Engine e;
  const EventId id = e.after(milliseconds(1), [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
  EXPECT_EQ(e.pending(), 0u);  // double cancel must not underflow the count
  e.run();
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine e;
  int fired = 0;
  const EventId id = e.after(milliseconds(1), [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.cancel(id));
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, StaleIdDoesNotCancelSlotReuser) {
  Engine e;
  // Fire A so its slot recycles, then schedule B (which reuses the slot).
  // A's stale id must not cancel B: the generation in the id catches it.
  const EventId a = e.after(milliseconds(1), [] {});
  e.run();
  bool b_ran = false;
  const EventId b = e.after(milliseconds(1), [&] { b_ran = true; });
  EXPECT_FALSE(e.cancel(a));
  e.run();
  EXPECT_TRUE(b_ran);
  EXPECT_TRUE((a.seq & 0xffffffffu) == (b.seq & 0xffffffffu))
      << "test premise: B reuses A's slot";
}

TEST(Engine, CancelFromInsideHandler) {
  Engine e;
  bool victim_ran = false;
  const EventId victim = e.after(milliseconds(2), [&] { victim_ran = true; });
  e.after(milliseconds(1), [&] { EXPECT_TRUE(e.cancel(victim)); });
  e.run();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(e.executed(), 1u);
}

TEST(Engine, FarFutureAndNearEventsInterleaveInOrder) {
  // Exercises the calendar queue's near/rung/far routing: handlers keep
  // scheduling across a wide range of deltas and everything must still
  // fire in global (time, schedule-order) order.
  Engine e;
  std::vector<std::int64_t> times;
  auto record = [&] { times.push_back(e.now().ns()); };
  for (int i = 0; i < 40; ++i) {
    e.after(nanoseconds(17 * i % 64), record);        // dense near ties
    e.after(microseconds(1 + 13 * i % 29), record);   // mid-range rung
    e.after(milliseconds(1 + i % 7), record);         // far overflow
    e.after(seconds(1) + nanoseconds(i), record);     // distant rung rebuild
  }
  e.after(nanoseconds(1), [&] {
    for (int i = 0; i < 20; ++i) e.after(microseconds(100 + i), record);
  });
  e.run();
  EXPECT_EQ(times.size(), 180u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine e;
  int fired = 0;
  e.after(milliseconds(10), [&] { ++fired; });
  e.after(milliseconds(30), [&] { ++fired; });
  e.run_until(TimePoint{milliseconds(20).ns()});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now().ns(), milliseconds(20).ns());
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilIncludesBoundaryEvents) {
  Engine e;
  bool ran = false;
  e.after(milliseconds(10), [&] { ran = true; });
  e.run_until(TimePoint{milliseconds(10).ns()});
  EXPECT_TRUE(ran);
}

TEST(Engine, AfterSaturatesInsteadOfWrapping) {
  // A far-future delay whose absolute target overflows int64 nanoseconds
  // must clamp to TimePoint::max(), not wrap negative (which would fire
  // "in the past" and corrupt calendar routing).
  Engine e;
  e.after(milliseconds(1), [] {});
  e.run();  // now() > 0, so now + Duration::max() overflows
  TimePoint fired_at = TimePoint::zero();
  e.after(Duration::max(), [&] { fired_at = e.now(); });
  e.run();
  EXPECT_EQ(fired_at, TimePoint::max());
}

TEST(Engine, AfterSaturatedEventsKeepScheduleOrder) {
  // Two overflowing delays of different magnitudes land on the same
  // clamped instant and must fire in schedule order, after every
  // finite-time event.
  Engine e;
  e.after(milliseconds(1), [] {});
  e.run();  // now() = 1ms, so both delays below overflow
  std::vector<int> order;
  e.after(seconds(1), [&] { order.push_back(0); });
  e.after(Duration::max(), [&] { order.push_back(1); });
  e.after(Duration::max() - nanoseconds(7), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.after(milliseconds(1), [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, ExecutedCounter) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.after(milliseconds(i + 1), [] {});
  e.run();
  EXPECT_EQ(e.executed(), 5u);
}

TEST(PeriodicTimer, TicksAtPeriod) {
  Engine e;
  int ticks = 0;
  PeriodicTimer timer(e, milliseconds(10), [&] { ++ticks; });
  timer.start();
  e.run_until(TimePoint{milliseconds(35).ns()});
  EXPECT_EQ(ticks, 3);  // at 10, 20, 30 ms
}

TEST(PeriodicTimer, StopHaltsTicks) {
  Engine e;
  int ticks = 0;
  PeriodicTimer timer(e, milliseconds(10), [&] { ++ticks; });
  timer.start();
  e.at(TimePoint{milliseconds(25).ns()}, [&] { timer.stop(); });
  e.run_until(TimePoint{milliseconds(100).ns()});
  EXPECT_EQ(ticks, 2);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, StartAfterInitialDelay) {
  Engine e;
  std::vector<std::int64_t> tick_times;
  PeriodicTimer timer(e, milliseconds(10), [&] { tick_times.push_back(e.now().ns()); });
  timer.start_after(milliseconds(5));
  e.run_until(TimePoint{milliseconds(30).ns()});
  ASSERT_EQ(tick_times.size(), 3u);
  EXPECT_EQ(tick_times[0], milliseconds(5).ns());
  EXPECT_EQ(tick_times[1], milliseconds(15).ns());
  EXPECT_EQ(tick_times[2], milliseconds(25).ns());
}

TEST(PeriodicTimer, CallbackMayStopTimer) {
  Engine e;
  int ticks = 0;
  PeriodicTimer timer(e, milliseconds(1), [&] {
    if (++ticks == 3) timer.stop();
  });
  timer.start();
  e.run();
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTimer, RestartFromInsideCallbackRearmsExactlyOnce) {
  Engine e;
  std::vector<std::int64_t> tick_times;
  PeriodicTimer timer(e, milliseconds(10), [&] {
    tick_times.push_back(e.now().ns());
    if (tick_times.size() == 1) {
      // Restart with a new period from inside the tick. The timer must
      // re-arm exactly once (no duplicate chain from the old period).
      timer.set_period(milliseconds(3));
      timer.start();
    }
  });
  timer.start();
  e.run_until(TimePoint{milliseconds(20).ns()});
  const std::vector<std::int64_t> expected{
      milliseconds(10).ns(), milliseconds(13).ns(), milliseconds(16).ns(),
      milliseconds(19).ns()};
  EXPECT_EQ(tick_times, expected);
}

TEST(PeriodicTimer, RestartResetsPhase) {
  Engine e;
  std::vector<std::int64_t> tick_times;
  PeriodicTimer timer(e, milliseconds(10), [&] { tick_times.push_back(e.now().ns()); });
  timer.start();
  e.at(TimePoint{milliseconds(5).ns()}, [&] { timer.start(); });  // restart mid-period
  e.run_until(TimePoint{milliseconds(20).ns()});
  ASSERT_FALSE(tick_times.empty());
  EXPECT_EQ(tick_times[0], milliseconds(15).ns());  // 5ms restart + 10ms period
}

}  // namespace
}  // namespace aqm::sim
