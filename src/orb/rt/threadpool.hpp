// RT-CORBA thread pools with lanes.
//
// A lane owns a fixed number of "threads" at a lane priority and a bounded
// request queue (RT-CORBA's bounded buffering of requests). A request is
// dispatched into the lane with the highest lane priority <= the request's
// CORBA priority (or the lowest lane if none qualifies). While a lane has a
// free thread the request's CPU work is submitted immediately; otherwise it
// waits in the lane queue, and is rejected (TRANSIENT) when the queue is
// full. CLIENT_PROPAGATED requests execute at the *request's* mapped native
// priority; SERVER_DECLARED ones arrive already carrying the declared
// priority, so the same rule applies.
//
// Dispatch allocates nothing once warm: every request's work sits in a
// recycled slot of one pool-wide table, a lane queues slot indices in a
// ring that grows on demand, and the CPU job a request runs as captures
// only {pool, slot}, so it fits std::function's inline storage.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/time.hpp"
#include "os/cpu.hpp"
#include "orb/rt/priority_mapping.hpp"
#include "orb/types.hpp"

namespace aqm::orb::rt {

struct ThreadpoolLane {
  CorbaPriority lane_priority = 0;
  unsigned static_threads = 1;
  std::size_t max_queue = 64;  // pending requests beyond the busy threads
};

class ThreadPool {
 public:
  /// `lanes` must be non-empty; they are sorted by lane priority internally.
  /// `mapping` is read at each dispatch (it is the ORB's installed mapping,
  /// so a later install applies to later work) and must outlive the pool.
  ThreadPool(os::Cpu& cpu, const PriorityMapping& mapping,
             std::vector<ThreadpoolLane> lanes);

  /// Submits request work costing `cpu_cost` at `priority`. `on_complete`
  /// runs when the work finishes. Returns false when the chosen lane's
  /// queue is full (the caller should answer TRANSIENT).
  bool dispatch(CorbaPriority priority, Duration cpu_cost, std::function<void()> on_complete);

  [[nodiscard]] std::size_t queued(std::size_t lane) const { return lanes_.at(lane).queued; }
  [[nodiscard]] unsigned busy(std::size_t lane) const { return lanes_.at(lane).busy; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }

  /// Index of the lane a request of this priority lands in.
  [[nodiscard]] std::size_t lane_for(CorbaPriority priority) const;

 private:
  /// One dispatched request: waiting in its lane's ring or running.
  struct Work {
    CorbaPriority priority = 0;
    Duration cpu_cost{};
    std::function<void()> on_complete;
    std::uint32_t lane = 0;
  };
  struct Lane {
    ThreadpoolLane spec;
    unsigned busy = 0;
    /// FIFO of waiting work slots: ring[(head + i) % ring.size()], i < queued.
    std::vector<std::uint32_t> ring;
    std::size_t head = 0;
    std::size_t queued = 0;
  };

  void run(std::uint32_t slot);
  void finish(std::uint32_t slot);
  void on_thread_free(std::size_t lane_idx);

  os::Cpu& cpu_;
  const PriorityMapping& mapping_;
  std::vector<Lane> lanes_;  // sorted ascending by lane_priority
  std::vector<Work> work_;
  std::vector<std::uint32_t> free_work_;
  std::uint64_t rejected_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace aqm::orb::rt
