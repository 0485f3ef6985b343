// A/V streaming service: frame codec, sink endpoints, stream bindings, and
// a stream's QoS (RSVP reservation, priority) applied through a QoSSession
// over the binding's stub.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "avstreams/frame_codec.hpp"
#include "avstreams/stream.hpp"
#include "core/qos_session.hpp"
#include "core/testbed.hpp"
#include "media/video_source.hpp"

namespace aqm::av {
namespace {

TEST(FrameCodec, RoundTripPreservesMetadata) {
  media::VideoFrame f;
  f.index = 123;
  f.type = media::FrameType::P;
  f.size_bytes = 6800;
  f.capture_time = TimePoint{987'654'321};
  const auto body = encode_frame(f);
  EXPECT_EQ(body.size(), 6800u);  // padded to the frame's real size
  const media::VideoFrame out = decode_frame(body);
  EXPECT_EQ(out.index, 123u);
  EXPECT_EQ(out.type, media::FrameType::P);
  EXPECT_EQ(out.size_bytes, 6800u);
  EXPECT_EQ(out.capture_time, TimePoint{987'654'321});
}

TEST(FrameCodec, RejectsGarbage) {
  EXPECT_THROW((void)decode_frame({1, 2, 3}), orb::MarshalError);
  std::vector<std::uint8_t> bad(64, 0);
  bad[8] = 99;  // invalid frame type
  EXPECT_THROW((void)decode_frame(bad), orb::MarshalError);
}

struct StreamFixture : public ::testing::Test {
  StreamFixture() : bed(core::ReservationTestbedParams{}) {}
  core::ReservationTestbed bed;
};

TEST_F(StreamFixture, FramesFlowEndToEnd) {
  std::vector<media::VideoFrame> received;
  orb::Poa& poa = bed.receiver_orb.create_poa("video");
  VideoSinkEndpoint sink(poa, "display", microseconds(200),
                         [&](const media::VideoFrame& f) { received.push_back(f); });
  StreamBinding binding(bed.sender_orb, sink.ref(), core::kFlowVideo);

  media::VideoSource source(bed.engine, media::GopStructure::mpeg1_paper_profile(), 30.0,
                            [&](const media::VideoFrame& f) { binding.push(f); });
  source.start();
  bed.engine.run_until(TimePoint{seconds(2).ns()});
  source.stop();
  bed.engine.run_until(TimePoint{seconds(3).ns()});

  EXPECT_EQ(binding.frames_pushed(), 60u);
  EXPECT_EQ(received.size(), 60u);
  EXPECT_EQ(sink.frames_received(), 60u);
  EXPECT_EQ(received.front().type, media::FrameType::I);
  // Latency is positive: frames arrive after their capture time.
  EXPECT_GT(bed.engine.now(), received.front().capture_time);
}

TEST_F(StreamFixture, ReservationAttachesToStreamFlow) {
  orb::Poa& poa = bed.receiver_orb.create_poa("video");
  VideoSinkEndpoint sink(poa, "display", microseconds(200),
                         [](const media::VideoFrame&) {});
  StreamBinding binding(bed.sender_orb, sink.ref(), core::kFlowVideo);
  core::QoSSession session(bed.sender_orb, binding.stub(), &bed.qos);
  auto* queue = dynamic_cast<net::IntServQueue*>(
      &bed.network.link_between(bed.switch_node, bed.receiver_node)->queue());
  ASSERT_NE(queue, nullptr);

  core::EndToEndQosPolicy policy;
  policy.flow = core::kFlowVideo;
  policy.network_reservation = net::FlowSpec{1.2e6, 32'000};
  std::optional<bool> outcome;
  session.apply(policy, [&](Status<std::string> s) { outcome = s.ok(); });
  bed.engine.run_until(TimePoint{seconds(1).ns()});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(*outcome);
  // The bottleneck egress holds the reservation for the stream's flow.
  EXPECT_TRUE(queue->has_reservation(core::kFlowVideo));
  EXPECT_DOUBLE_EQ(queue->flow_rate_bps(core::kFlowVideo), 1.2e6);

  // A larger spec re-signals the live reservation in place: the egress
  // never drops it while the upgrade is in flight.
  policy.network_reservation = net::FlowSpec{1.6e6, 32'000};
  outcome.reset();
  session.apply(policy, [&](Status<std::string> s) { outcome = s.ok(); });
  for (int step = 1; step <= 1000 && !outcome; ++step) {
    bed.engine.run_until(TimePoint{(seconds(1) + microseconds(100) * step).ns()});
    ASSERT_TRUE(queue->has_reservation(core::kFlowVideo)) << "dropped at step " << step;
  }
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(*outcome);
  EXPECT_TRUE(session.network_reserved());
  EXPECT_DOUBLE_EQ(queue->flow_rate_bps(core::kFlowVideo), 1.6e6);

  session.revoke();
  bed.engine.run_until(TimePoint{seconds(2).ns()});
  EXPECT_FALSE(session.network_reserved());
  EXPECT_FALSE(queue->has_reservation(core::kFlowVideo));
}

TEST_F(StreamFixture, StreamPriorityAffectsDscp) {
  bed.sender_orb.dscp_mappings() = orb::rt::DscpMapping::banded();
  orb::Poa& poa = bed.receiver_orb.create_poa("video");
  VideoSinkEndpoint sink(poa, "display", microseconds(200),
                         [](const media::VideoFrame&) {});
  StreamBinding binding(bed.sender_orb, sink.ref(), core::kFlowVideo);
  core::QoSSession session(bed.sender_orb, binding.stub());
  core::EndToEndQosPolicy policy;
  policy.priority = 30'000;  // maps to EF under the banded mapping
  session.apply(policy);

  media::VideoFrame f;
  f.index = 0;
  f.type = media::FrameType::I;
  f.size_bytes = 13'600;
  f.capture_time = bed.engine.now();
  binding.push(f);
  bed.engine.run_until(TimePoint{seconds(1).ns()});
  EXPECT_EQ(sink.frames_received(), 1u);
  // Delivered through the IntServ control-free path as EF-marked best
  // effort (no reservation): delivery statistics confirm the flow moved.
  EXPECT_GT(bed.network.flow(core::kFlowVideo).delivered, 0u);
}

}  // namespace
}  // namespace aqm::av
