#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "orb/rt/threadpool.hpp"
#include "sim/engine.hpp"

namespace aqm::orb::rt {
namespace {

os::CpuConfig fifo_config() {
  os::CpuConfig cfg;
  cfg.quantum = Duration::max() - Duration{1};
  return cfg;
}

struct PoolFixture : public ::testing::Test {
  PoolFixture() : cpu(engine, "cpu", fifo_config()) {}
  sim::Engine engine;
  os::Cpu cpu;
  PriorityMapping mapping;
};

TEST_F(PoolFixture, LaneSelectionByPriority) {
  ThreadPool pool(cpu, mapping,
                  {{0, 1, 8}, {10'000, 1, 8}, {25'000, 1, 8}});
  EXPECT_EQ(pool.lane_for(0), 0u);
  EXPECT_EQ(pool.lane_for(9'999), 0u);
  EXPECT_EQ(pool.lane_for(10'000), 1u);
  EXPECT_EQ(pool.lane_for(24'999), 1u);
  EXPECT_EQ(pool.lane_for(32'767), 2u);
}

TEST_F(PoolFixture, SingleThreadSerializesRequests) {
  ThreadPool pool(cpu, mapping, {{0, 1, 8}});
  std::vector<std::int64_t> completions;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(pool.dispatch(0, milliseconds(10),
                              [&] { completions.push_back(engine.now().ns()); }));
  }
  engine.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], milliseconds(10).ns());
  EXPECT_EQ(completions[1], milliseconds(20).ns());
  EXPECT_EQ(completions[2], milliseconds(30).ns());
}

TEST_F(PoolFixture, MultipleThreadsOverlapOnCpu) {
  // Two threads: both jobs become CPU-runnable immediately; with FIFO
  // scheduling they still serialize on the single core, but the second
  // does not wait for the first to *complete* before being submitted.
  ThreadPool pool(cpu, mapping, {{0, 2, 8}});
  EXPECT_TRUE(pool.dispatch(0, milliseconds(10), [] {}));
  EXPECT_TRUE(pool.dispatch(0, milliseconds(10), [] {}));
  EXPECT_EQ(pool.busy(0), 2u);
  EXPECT_EQ(pool.queued(0), 0u);
  engine.run();
  EXPECT_EQ(pool.completed(), 2u);
}

TEST_F(PoolFixture, QueueBoundRejects) {
  ThreadPool pool(cpu, mapping, {{0, 1, 2}});
  EXPECT_TRUE(pool.dispatch(0, milliseconds(10), [] {}));  // running
  EXPECT_TRUE(pool.dispatch(0, milliseconds(10), [] {}));  // queued 1
  EXPECT_TRUE(pool.dispatch(0, milliseconds(10), [] {}));  // queued 2
  EXPECT_FALSE(pool.dispatch(0, milliseconds(10), [] {})); // rejected
  EXPECT_EQ(pool.rejected(), 1u);
  engine.run();
  EXPECT_EQ(pool.completed(), 3u);
}

TEST_F(PoolFixture, HigherLaneRunsAtHigherNativePriority) {
  ThreadPool pool(cpu, mapping, {{0, 1, 8}, {30'000, 1, 8}});
  std::optional<std::int64_t> low_done;
  std::optional<std::int64_t> high_done;
  EXPECT_TRUE(pool.dispatch(0, milliseconds(10), [&] { low_done = engine.now().ns(); }));
  EXPECT_TRUE(
      pool.dispatch(30'000, milliseconds(10), [&] { high_done = engine.now().ns(); }));
  engine.run();
  ASSERT_TRUE(low_done && high_done);
  // The high-priority request preempts: it finishes first even though it
  // was dispatched second.
  EXPECT_LT(*high_done, *low_done);
}

TEST_F(PoolFixture, QueuedWorkDrainsInFifoOrder) {
  ThreadPool pool(cpu, mapping, {{0, 1, 8}});
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.dispatch(0, milliseconds(1), [&order, i] { order.push_back(i); }));
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(PoolFixture, IndependentLaneQueues) {
  ThreadPool pool(cpu, mapping, {{0, 1, 1}, {20'000, 1, 1}});
  // Saturate the low lane.
  EXPECT_TRUE(pool.dispatch(0, milliseconds(10), [] {}));
  EXPECT_TRUE(pool.dispatch(0, milliseconds(10), [] {}));
  EXPECT_FALSE(pool.dispatch(0, milliseconds(10), [] {}));
  // High lane unaffected.
  EXPECT_TRUE(pool.dispatch(25'000, milliseconds(10), [] {}));
  engine.run();
}

}  // namespace
}  // namespace aqm::orb::rt
