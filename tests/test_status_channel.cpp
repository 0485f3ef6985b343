// Distributed QuO plumbing: status reports, collectors, and the reusable
// rate-adaptation qosket.
#include <gtest/gtest.h>

#include <memory>

#include "avstreams/rate_adaptation.hpp"
#include "net/network.hpp"
#include "orb/orb.hpp"
#include "os/cpu.hpp"
#include "quo/status_channel.hpp"
#include "sim/engine.hpp"

namespace aqm::quo {
namespace {

TEST(StatusReportCodec, RoundTrip) {
  StatusReport report;
  report.sent_at = TimePoint{123'456};
  report.values = {{"fps", 29.5}, {"loss", 0.02}, {"cpu", 0.8}};
  const auto body = encode_status_report(report);
  const StatusReport back = decode_status_report(body);
  EXPECT_EQ(back.sent_at, TimePoint{123'456});
  ASSERT_EQ(back.values.size(), 3u);
  EXPECT_EQ(back.values[0].first, "fps");
  EXPECT_DOUBLE_EQ(back.values[0].second, 29.5);
  EXPECT_EQ(back.values[2].first, "cpu");
}

TEST(StatusReportCodec, RejectsGarbage) {
  EXPECT_THROW((void)decode_status_report({1, 2}), orb::MarshalError);
}

struct ChannelFixture : public ::testing::Test {
  ChannelFixture()
      : net(engine),
        producer_node(net.add_node("producer")),
        consumer_node(net.add_node("consumer")),
        producer_cpu(engine, "producer-cpu"),
        consumer_cpu(engine, "consumer-cpu"),
        producer(net, producer_node, producer_cpu),
        consumer(net, consumer_node, consumer_cpu) {
    net.add_duplex_link(producer_node, consumer_node, net::LinkConfig{});
  }

  sim::Engine engine;
  net::Network net;
  net::NodeId producer_node;
  net::NodeId consumer_node;
  os::Cpu producer_cpu;
  os::Cpu consumer_cpu;
  orb::OrbEndpoint producer;
  orb::OrbEndpoint consumer;
};

TEST_F(ChannelFixture, ReportsUpdateCollectorConditions) {
  orb::Poa& poa = consumer.create_poa("quo");
  StatusCollector collector(poa, "status");
  ValueSysCond& fps = collector.condition("fps");

  double measured = 30.0;
  StatusReporter reporter(producer, collector.ref(), milliseconds(100));
  reporter.probe("fps", [&] { return measured; });
  reporter.start();
  engine.run_until(TimePoint{milliseconds(350).ns()});
  EXPECT_DOUBLE_EQ(fps.value(), 30.0);

  measured = 10.0;
  engine.run_until(TimePoint{milliseconds(550).ns()});
  reporter.stop();
  EXPECT_DOUBLE_EQ(fps.value(), 10.0);
  EXPECT_GE(collector.reports_received(), 4u);
  EXPECT_TRUE(collector.last_report_at().has_value());
}

TEST_F(ChannelFixture, UnregisteredEntriesIgnored) {
  orb::Poa& poa = consumer.create_poa("quo");
  StatusCollector collector(poa, "status");
  StatusReporter reporter(producer, collector.ref(), milliseconds(100));
  reporter.probe("unknown-metric", [] { return 7.0; });
  reporter.start();
  engine.run_until(TimePoint{milliseconds(250).ns()});
  reporter.stop();
  EXPECT_GE(collector.reports_received(), 2u);  // delivered, just unused
}

TEST_F(ChannelFixture, UnchangedValueStillNotifies) {
  // update() semantics: a stalled counter keeps generating notifications,
  // which loss-detection logic depends on.
  orb::Poa& poa = consumer.create_poa("quo");
  StatusCollector collector(poa, "status");
  ValueSysCond& counter = collector.condition("counter");
  int notifications = 0;
  counter.subscribe([&] { ++notifications; });
  StatusReporter reporter(producer, collector.ref(), milliseconds(100));
  reporter.probe("counter", [] { return 5.0; });  // never changes
  reporter.start();
  engine.run_until(TimePoint{milliseconds(450).ns()});
  reporter.stop();
  EXPECT_GE(notifications, 4);
}

TEST_F(ChannelFixture, ContractObservesRemoteCondition) {
  orb::Poa& poa = consumer.create_poa("quo");
  StatusCollector collector(poa, "status");
  ValueSysCond& load = collector.condition("load", 0.0);
  Contract contract(engine, "load-watch");
  contract.add_region("calm", [&] { return load.value() < 0.5; })
      .add_region("stressed", nullptr)
      .observe(load);
  contract.eval();

  double remote_load = 0.1;
  StatusReporter reporter(producer, collector.ref(), milliseconds(100));
  reporter.probe("load", [&] { return remote_load; });
  reporter.start();
  engine.run_until(TimePoint{milliseconds(250).ns()});
  EXPECT_EQ(contract.current_region(), "calm");
  remote_load = 0.9;
  engine.run_until(TimePoint{milliseconds(450).ns()});
  reporter.stop();
  EXPECT_EQ(contract.current_region(), "stressed");
}

}  // namespace
}  // namespace aqm::quo

namespace aqm::av {
namespace {

// The qosket's fixed contract (rate_adaptation.cpp): a level change arms
// 4 grace reports, 4 consecutive reports in loss step down again, and the
// first upgrade probe waits for 16 clean reports, doubling after each probe.
constexpr int kGrace = 4;
constexpr int kPersistentLoss = 4;
constexpr int kFirstHold = 16;

RateAdaptationConfig rates(double reserved, double ip_rate) {
  RateAdaptationConfig cfg;
  cfg.reserved_rate_bps = reserved;
  cfg.ip_stream_rate_bps = ip_rate;
  return cfg;
}

void report_n(RateAdaptationQosket& qosket, int n, double ratio) {
  for (int i = 0; i < n; ++i) qosket.report(ratio);
}

TEST(RateAdaptationQosket, DowngradesToIpWhenReservationCoversIt) {
  sim::Engine engine;
  media::FrameFilter filter;
  RateAdaptationQosket qosket(engine, filter, rates(700e3, 650e3));
  EXPECT_EQ(qosket.level(), media::FilterLevel::Full);
  qosket.report(0.3);
  EXPECT_EQ(qosket.level(), media::FilterLevel::IpOnly);
}

TEST(RateAdaptationQosket, DowngradesToIOnlyWithoutReservation) {
  sim::Engine engine;
  media::FrameFilter filter;
  RateAdaptationQosket qosket(engine, filter, rates(0.0, 650e3));
  qosket.report(0.1);
  EXPECT_EQ(qosket.level(), media::FilterLevel::IOnly);
}

TEST(RateAdaptationQosket, PersistentLossStepsDownAgain) {
  sim::Engine engine;
  media::FrameFilter filter;
  RateAdaptationQosket qosket(engine, filter, rates(700e3, 650e3));
  qosket.report(0.3);  // Full -> IpOnly, grace armed
  report_n(qosket, kGrace, 0.3);
  report_n(qosket, kPersistentLoss - 1, 0.3);
  EXPECT_EQ(qosket.level(), media::FilterLevel::IpOnly);
  qosket.report(0.3);  // persistent loss -> IOnly
  EXPECT_EQ(qosket.level(), media::FilterLevel::IOnly);
}

TEST(RateAdaptationQosket, UpgradesAfterCleanHold) {
  sim::Engine engine;
  media::FrameFilter filter;
  RateAdaptationQosket qosket(engine, filter, rates(700e3, 650e3));
  qosket.report(0.3);  // -> IpOnly
  report_n(qosket, kGrace, 1.0);
  report_n(qosket, kFirstHold - 1, 1.0);
  EXPECT_EQ(qosket.level(), media::FilterLevel::IpOnly);
  qosket.report(1.0);
  EXPECT_EQ(qosket.level(), media::FilterLevel::Full);
}

TEST(RateAdaptationQosket, BackoffDoublesUpgradeHold) {
  sim::Engine engine;
  media::FrameFilter filter;
  RateAdaptationQosket qosket(engine, filter, rates(700e3, 650e3));
  qosket.report(0.3);                                 // -> IpOnly
  report_n(qosket, kGrace + kFirstHold, 1.0);         // probe up -> Full
  report_n(qosket, kGrace, 1.0);
  qosket.report(0.3);                                 // fails -> IpOnly
  report_n(qosket, kGrace + kFirstHold, 1.0);         // first hold: NOT enough now
  EXPECT_EQ(qosket.level(), media::FilterLevel::IpOnly);
  report_n(qosket, kFirstHold, 1.0);                  // doubled hold: upgrade
  EXPECT_EQ(qosket.level(), media::FilterLevel::Full);
}

TEST(RateAdaptationQosket, GraceSuppressesTransientLoss) {
  sim::Engine engine;
  media::FrameFilter filter;
  RateAdaptationQosket qosket(engine, filter, rates(700e3, 650e3));
  qosket.report(0.3);  // -> IpOnly, grace armed
  report_n(qosket, kGrace, 0.1);  // swallowed by grace
  EXPECT_EQ(qosket.level(), media::FilterLevel::IpOnly);
  // Now they count (the contract is still in its loss region).
  report_n(qosket, kPersistentLoss - 1, 0.1);
  EXPECT_EQ(qosket.level(), media::FilterLevel::IpOnly);
  qosket.report(0.1);  // persistent-loss counter reaches its bound -> IOnly
  EXPECT_EQ(qosket.level(), media::FilterLevel::IOnly);
}

TEST(RateAdaptationQosket, HistoryRecordsTransitions) {
  sim::Engine engine;
  media::FrameFilter filter;
  RateAdaptationQosket qosket(engine, filter, rates(700e3, 650e3));
  qosket.report(0.3);
  report_n(qosket, kGrace + kFirstHold, 1.0);
  ASSERT_EQ(qosket.history().size(), 2u);
  EXPECT_EQ(qosket.history()[0].second, "ip-10fps");
  EXPECT_EQ(qosket.history()[1].second, "full-30fps");
}

TEST(RateAdaptationQosket, ObserveWiresACondition) {
  sim::Engine engine;
  media::FrameFilter filter;
  RateAdaptationQosket qosket(engine, filter, rates(700e3, 650e3));
  quo::ValueSysCond ratio("ratio", 1.0);
  qosket.observe(ratio);
  ratio.update(0.2);
  EXPECT_EQ(qosket.level(), media::FilterLevel::IpOnly);
}

}  // namespace
}  // namespace aqm::av
