// Frame source: replays an MPEG-structured stream at a fixed frame rate
// (the paper's "video source processes ... that replay from a file").
#pragma once

#include <cstdint>
#include <functional>

#include "common/time.hpp"
#include "media/gop.hpp"
#include "sim/engine.hpp"

namespace aqm::media {

class VideoSource {
 public:
  using FrameSink = std::function<void(const VideoFrame&)>;

  VideoSource(sim::Engine& engine, GopStructure gop, double fps, FrameSink sink);
  ~VideoSource() { stop(); }
  VideoSource(const VideoSource&) = delete;
  VideoSource& operator=(const VideoSource&) = delete;

  void start();
  void stop();
  /// Convenience: schedules start at `from` and stop at `until`.
  void run_between(TimePoint from, TimePoint until);

  [[nodiscard]] bool running() const { return timer_.running(); }
  [[nodiscard]] double fps() const { return fps_; }
  [[nodiscard]] const GopStructure& gop() const { return gop_; }

 private:
  void emit();

  sim::Engine& engine_;
  GopStructure gop_;
  double fps_;
  FrameSink sink_;
  sim::PeriodicTimer timer_;
  std::uint64_t next_index_ = 0;
};

}  // namespace aqm::media
