// CORBA A/V Streaming Service analog [Avstreams:98, Mungee:00i].
//
// The service's role in the paper: "we utilize the CORBA A/V Streaming
// Service to set up the (video stream) paths between the communicating
// CORBA objects. Integrated with that is the ability to attach an RSVP
// reservation to the underlying network connection as it is set up."
//
//  * VideoSinkEndpoint — receiver side: activates a frame-sink servant in a
//    POA and hands arriving frames to application code.
//  * StreamBinding — sender side: a bound flow to a sink endpoint, pushing
//    frames as oneway GIOP requests through its ObjectStub. The stream's
//    QoS (priority, DSCP, the RSVP reservation attached to its flow) is a
//    core::QoSSession applied over stub(), mirroring the explicit-binding
//    + QoS model: the session is the one path that reserves, re-stamps
//    and releases.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "media/frame.hpp"
#include "orb/orb.hpp"

namespace aqm::av {

class VideoSinkEndpoint {
 public:
  using FrameHandler = std::function<void(const media::VideoFrame&)>;

  /// Activates the sink servant as `<object_id>` in `poa`. `decode_cost`
  /// is the per-frame CPU cost of receiving/decoding on the sink host.
  VideoSinkEndpoint(orb::Poa& poa, const std::string& object_id, Duration decode_cost,
                    FrameHandler on_frame);

  [[nodiscard]] const orb::ObjectRef& ref() const { return ref_; }
  [[nodiscard]] std::uint64_t frames_received() const { return received_; }

 private:
  orb::ObjectRef ref_;
  std::uint64_t received_ = 0;
};

class StreamBinding {
 public:
  /// Binds a sender-side stream to a sink endpoint over flow `flow`.
  StreamBinding(orb::OrbEndpoint& orb, orb::ObjectRef sink, net::FlowId flow);

  /// Pushes one frame down the stream (oneway).
  void push(const media::VideoFrame& frame);

  [[nodiscard]] net::FlowId flow() const { return stub_.flow(); }
  /// The stream's binding; a core::QoSSession over it applies the
  /// stream's QoS.
  [[nodiscard]] orb::ObjectStub& stub() { return stub_; }
  [[nodiscard]] std::uint64_t frames_pushed() const { return pushed_; }

 private:
  orb::ObjectStub stub_;
  std::uint64_t pushed_ = 0;
};

}  // namespace aqm::av
