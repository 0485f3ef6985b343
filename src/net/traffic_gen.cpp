#include "net/traffic_gen.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace aqm::net {

namespace {

TrafficGenerator::Config with_seed(TrafficGenerator::Config c, std::uint64_t seed) {
  c.seed = seed;
  return c;
}

}  // namespace

TrafficGenerator::TrafficGenerator(Network& net, Config config)
    : net_(net), config_(config), rng_(config.seed) {
  assert(config_.src != kInvalidNode);
  assert(config_.dst != kInvalidNode);
  assert(config_.rate_bps > 0.0);
}

TrafficGenerator::TrafficGenerator(Network& net, Config config, std::uint64_t trial_seed)
    : TrafficGenerator(net, with_seed(std::move(config), trial_seed)) {}

void TrafficGenerator::start() {
  if (running_) return;
  running_ = true;
  sending_ = true;
  arm_next();
  if (bursty()) arm_toggle();
}

void TrafficGenerator::stop() {
  if (!running_) return;
  running_ = false;
  if (next_event_.valid()) net_.engine().cancel(next_event_);
  next_event_ = sim::EventId{};
  if (toggle_event_.valid()) net_.engine().cancel(toggle_event_);
  toggle_event_ = sim::EventId{};
}

void TrafficGenerator::arm_toggle() {
  const Duration mean = sending_ ? config_.on_mean : config_.off_mean;
  const auto wait = Duration{std::max<std::int64_t>(
      1, static_cast<std::int64_t>(rng_.exponential(static_cast<double>(mean.ns()))))};
  toggle_event_ = net_.engine().after(wait, [this] {
    toggle_event_ = sim::EventId{};
    if (!running_) return;
    sending_ = !sending_;
    if (sending_ && !next_event_.valid()) arm_next();
    arm_toggle();
  });
}

void TrafficGenerator::run_between(TimePoint from, TimePoint until) {
  assert(from < until);
  auto& engine = net_.engine();
  engine.at(from, [this] { start(); });
  engine.at(until, [this] { stop(); });
}

Duration TrafficGenerator::interval() {
  const double mean_s =
      static_cast<double>(kPacketBytes) * 8.0 / config_.rate_bps;
  const double s = config_.poisson ? rng_.exponential(mean_s) : mean_s;
  return Duration{std::max<std::int64_t>(1, static_cast<std::int64_t>(std::llround(s * 1e9)))};
}

void TrafficGenerator::arm_next() {
  next_event_ = net_.engine().after(interval(), [this] {
    next_event_ = sim::EventId{};
    if (!running_ || !sending_) return;  // paused until the next "on" toggle
    Packet p;
    p.dst = config_.dst;
    p.size_bytes = kPacketBytes;
    p.flow = config_.flow;
    p.seq = seq_++;
    net_.send(config_.src, std::move(p));
    ++sent_;
    arm_next();
  });
}

}  // namespace aqm::net
