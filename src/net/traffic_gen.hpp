// Cross-traffic generation, standing in for the paper's load machines
// (16 Mbps competing traffic in the Figure 4-6 testbed, 43.8 Mbps in the
// reservation experiments). Its packets are best effort (the packet's
// default DSCP).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"

namespace aqm::net {

class TrafficGenerator {
 public:
  /// Every generated packet is one full MTU.
  static constexpr std::uint32_t kPacketBytes = kDefaultMtu;

  struct Config {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    double rate_bps = 16e6;
    FlowId flow = kNoFlow;
    bool poisson = false;  // false = CBR spacing
    std::uint64_t seed = 7;
    /// Optional on/off (bursty) modulation: while "on" the generator sends
    /// at rate_bps, then goes silent; durations are exponentially
    /// distributed with these means. Disabled when either is zero. The
    /// long-run average rate is rate_bps * on / (on + off).
    Duration on_mean = Duration::zero();
    Duration off_mean = Duration::zero();
  };

  TrafficGenerator(Network& net, Config config);
  /// Explicit per-trial seed, overriding config.seed. Every generator owns
  /// its private Rng (no shared or global stream), so two trials built with
  /// the same trial seed emit identical packet schedules regardless of
  /// which worker thread runs them.
  TrafficGenerator(Network& net, Config config, std::uint64_t trial_seed);
  ~TrafficGenerator() { stop(); }
  TrafficGenerator(const TrafficGenerator&) = delete;
  TrafficGenerator& operator=(const TrafficGenerator&) = delete;

  void start();
  void stop();
  /// Convenience: schedules start at `from` and stop at `until`.
  void run_between(TimePoint from, TimePoint until);

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }

 private:
  void arm_next();
  void arm_toggle();
  [[nodiscard]] Duration interval();
  [[nodiscard]] bool bursty() const {
    return config_.on_mean > Duration::zero() && config_.off_mean > Duration::zero();
  }

  Network& net_;
  Config config_;
  Rng rng_;
  bool running_ = false;
  bool sending_ = true;  // on/off modulation state (always true when not bursty)
  sim::EventId next_event_{};
  sim::EventId toggle_event_{};
  std::uint64_t sent_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace aqm::net
