// QuO layer: system condition objects and contracts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "quo/contract.hpp"
#include "quo/syscond.hpp"
#include "sim/engine.hpp"

namespace aqm::quo {
namespace {

TEST(SysCond, ValueSetNotifiesSubscribers) {
  ValueSysCond cond("load");
  int notifications = 0;
  cond.subscribe([&] { ++notifications; });
  cond.set(1.0);
  cond.set(2.0);
  cond.set(2.0);  // unchanged: no notification
  EXPECT_EQ(notifications, 2);
  EXPECT_DOUBLE_EQ(cond.value(), 2.0);
}

struct ContractFixture : public ::testing::Test {
  ContractFixture() : contract(engine, "bandwidth") {}
  sim::Engine engine;
  Contract contract;
};

TEST_F(ContractFixture, FirstMatchingRegionWins) {
  ValueSysCond bw("bw", 10.0);
  contract.add_region("high", [&] { return bw.value() >= 8.0; })
      .add_region("medium", [&] { return bw.value() >= 4.0; })
      .add_region("low", nullptr);
  EXPECT_EQ(contract.eval(), "high");
  bw.set(5.0);
  EXPECT_EQ(contract.eval(), "medium");
  bw.set(0.5);
  EXPECT_EQ(contract.eval(), "low");
}

TEST_F(ContractFixture, ObserveTriggersAutomaticEval) {
  ValueSysCond bw("bw", 10.0);
  contract.add_region("good", [&] { return bw.value() >= 5.0; })
      .add_region("bad", nullptr)
      .observe(bw);
  contract.eval();
  EXPECT_EQ(contract.current_region(), "good");
  bw.set(1.0);  // auto re-eval via subscription
  EXPECT_EQ(contract.current_region(), "bad");
}

TEST_F(ContractFixture, CallbacksFireOnTransitions) {
  ValueSysCond bw("bw", 10.0);
  std::vector<std::string> events;
  contract.add_region("good", [&] { return bw.value() >= 5.0; })
      .add_region("bad", nullptr)
      .on_enter("bad", [&] { events.push_back("enter-bad"); })
      .on_enter("good", [&] { events.push_back("enter-good"); })
      .observe(bw);
  contract.eval();  // -> good
  bw.set(1.0);      // -> bad
  bw.set(9.0);      // -> good
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], "enter-good");
  EXPECT_EQ(events[1], "enter-bad");
  EXPECT_EQ(events[2], "enter-good");
}

TEST_F(ContractFixture, HistoryRecordsTimeline) {
  ValueSysCond bw("bw", 10.0);
  contract.add_region("good", [&] { return bw.value() >= 5.0; })
      .add_region("bad", nullptr)
      .observe(bw);
  contract.eval();
  engine.after(seconds(2), [&] { bw.set(0.0); });
  engine.run();
  ASSERT_EQ(contract.history().size(), 2u);
  EXPECT_EQ(contract.history()[0].second, "good");
  EXPECT_EQ(contract.history()[1].second, "bad");
  EXPECT_EQ(contract.history()[1].first.ns(), seconds(2).ns());
  EXPECT_EQ(contract.transition_count(), 1u);
}

TEST_F(ContractFixture, NoRegionMatchKeepsCurrent) {
  ValueSysCond v("v", 10.0);
  contract.add_region("only", [&] { return v.value() > 5.0; });
  contract.eval();
  EXPECT_EQ(contract.current_region(), "only");
  v.set(1.0);
  EXPECT_EQ(contract.eval(), "only");  // nothing matches: stay put
}

TEST_F(ContractFixture, TransitionCallbackSettingConditionDoesNotRecurse) {
  ValueSysCond v("v", 10.0);
  contract.add_region("a", [&] { return v.value() > 5.0; })
      .add_region("b", nullptr)
      .observe(v);
  contract.on_enter("b", [&] { v.set(9.0); });  // would re-trigger eval
  contract.eval();
  v.set(1.0);
  // Re-entrant eval is suppressed; a later eval picks up the new value.
  EXPECT_EQ(contract.current_region(), "b");
  EXPECT_EQ(contract.eval(), "a");
}

}  // namespace
}  // namespace aqm::quo
