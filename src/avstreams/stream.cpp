#include "avstreams/stream.hpp"

#include <cassert>

#include "avstreams/frame_codec.hpp"
#include "orb/servant.hpp"

namespace aqm::av {

VideoSinkEndpoint::VideoSinkEndpoint(orb::Poa& poa, const std::string& object_id,
                                     Duration decode_cost, FrameHandler on_frame) {
  assert(on_frame);
  auto servant = std::make_shared<orb::FunctionServant>(
      decode_cost, [this, handler = std::move(on_frame)](orb::ServerRequest& req) {
        if (req.operation != kPushFrameOp) return;
        const media::VideoFrame frame = decode_frame(req.body);
        ++received_;
        handler(frame);
      });
  ref_ = poa.activate_object(object_id, std::move(servant));
}

StreamBinding::StreamBinding(orb::OrbEndpoint& orb, orb::ObjectRef sink, net::FlowId flow)
    : stub_(orb, std::move(sink)) {
  assert(flow != net::kNoFlow && "streams need a flow id for QoS and statistics");
  stub_.set_flow(flow);
}

void StreamBinding::push(const media::VideoFrame& frame) {
  ++pushed_;
  stub_.oneway(kPushFrameOp, encode_frame(frame));
}

}  // namespace aqm::av
