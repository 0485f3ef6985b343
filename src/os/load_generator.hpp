// Competing CPU load, as used by the paper's Figure 5 ("increase the CPU
// load to simulate CPU intensive processing") and Table 2 ("the load added
// was variable and not sustained").
//
// The generator submits bursts of CPU work open-loop: burst arrivals follow
// an exponential inter-arrival process and each burst costs a
// randomized amount of CPU time, all at a fixed priority. Seeded, so load
// patterns are reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

namespace aqm::os {

class LoadGenerator {
 public:
  struct Config {
    Priority priority = kDefaultPriority;
    Duration burst_mean = milliseconds(20);    // mean CPU cost per burst
    double burst_jitter = 0.5;                 // burst ~ U[mean*(1-j), mean*(1+j)]
    Duration interval_mean = milliseconds(60); // mean time between burst arrivals
  };

  /// The generator owns a private Rng seeded with `seed` (no shared or
  /// global stream), so trials seeded identically produce identical load
  /// patterns on any worker thread.
  LoadGenerator(sim::Engine& engine, Cpu& cpu, Config config, std::uint64_t seed);
  /// Stops arrivals and cancels every burst still on the CPU: their
  /// completion callbacks point back at this generator.
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Average fraction of the CPU this generator asks for (mean burst /
  /// mean interval); may exceed what it actually gets under contention.
  [[nodiscard]] double offered_utilization() const;

  [[nodiscard]] std::uint64_t bursts_submitted() const { return bursts_; }

 private:
  void arm_next();
  void emit_burst();

  sim::Engine& engine_;
  Cpu& cpu_;
  Config config_;
  Rng rng_;
  bool running_ = false;
  sim::EventId next_event_{};
  /// Bursts submitted and possibly still on the CPU. stop() leaves them
  /// running; completed ones are pruned as new bursts are submitted.
  std::vector<JobId> in_flight_;
  std::uint64_t bursts_ = 0;
};

}  // namespace aqm::os
