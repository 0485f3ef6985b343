#include "os/load_generator.hpp"

#include <algorithm>
#include <cassert>

namespace aqm::os {

LoadGenerator::LoadGenerator(sim::Engine& engine, Cpu& cpu, Config config,
                             std::uint64_t seed)
    : engine_(engine), cpu_(cpu), config_(config), rng_(seed) {
  assert(config_.burst_mean > Duration::zero());
  assert(config_.interval_mean > Duration::zero());
  assert(config_.burst_jitter >= 0.0 && config_.burst_jitter <= 1.0);
}

LoadGenerator::~LoadGenerator() {
  stop();
  for (const JobId id : in_flight_) cpu_.cancel(id);
}

void LoadGenerator::start() {
  if (running_) return;
  running_ = true;
  arm_next();
}

void LoadGenerator::stop() {
  if (!running_) return;
  running_ = false;
  if (next_event_.valid()) engine_.cancel(next_event_);
  next_event_ = sim::EventId{};
}

double LoadGenerator::offered_utilization() const {
  return static_cast<double>(config_.burst_mean.ns()) /
         static_cast<double>(config_.interval_mean.ns());
}

void LoadGenerator::arm_next() {
  const double wait_ns = rng_.exponential(static_cast<double>(config_.interval_mean.ns()));
  next_event_ = engine_.after(Duration{std::max<std::int64_t>(1, static_cast<std::int64_t>(wait_ns))},
                              [this] {
                                next_event_ = sim::EventId{};
                                if (!running_) return;
                                emit_burst();
                                arm_next();
                              });
}

void LoadGenerator::emit_burst() {
  const double jitter = config_.burst_jitter;
  const double factor = jitter == 0.0 ? 1.0 : rng_.uniform(1.0 - jitter, 1.0 + jitter);
  const auto cost =
      Duration{std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                             static_cast<double>(config_.burst_mean.ns()) * factor))};
  ++bursts_;
  std::erase_if(in_flight_, [this](JobId id) { return !cpu_.base_priority(id).has_value(); });
  in_flight_.push_back(cpu_.submit_for(cost, config_.priority, nullptr));
}

}  // namespace aqm::os
