#include "orb/rt/threadpool.hpp"

#include <algorithm>
#include <cassert>

namespace aqm::orb::rt {

ThreadPool::ThreadPool(os::Cpu& cpu, const PriorityMapping& mapping,
                       std::vector<ThreadpoolLane> lanes)
    : cpu_(cpu), mapping_(mapping) {
  assert(!lanes.empty());
  std::sort(lanes.begin(), lanes.end(),
            [](const ThreadpoolLane& a, const ThreadpoolLane& b) {
              return a.lane_priority < b.lane_priority;
            });
  lanes_.reserve(lanes.size());
  for (auto& l : lanes) {
    assert(l.static_threads > 0);
    lanes_.emplace_back().spec = l;
  }
}

std::size_t ThreadPool::lane_for(CorbaPriority priority) const {
  // Highest lane priority <= request priority; lowest lane as fallback.
  // Lanes are sorted ascending by priority at construction, so this is a
  // binary search: first lane above the request, then step back one.
  const auto above = std::upper_bound(
      lanes_.begin(), lanes_.end(), priority,
      [](CorbaPriority p, const Lane& lane) { return p < lane.spec.lane_priority; });
  if (above == lanes_.begin()) return 0;
  return static_cast<std::size_t>(above - lanes_.begin()) - 1;
}

bool ThreadPool::dispatch(CorbaPriority priority, Duration cpu_cost,
                          std::function<void()> on_complete) {
  const std::size_t idx = lane_for(priority);
  Lane& lane = lanes_[idx];
  const bool run_now = lane.busy < lane.spec.static_threads;
  if (!run_now && lane.queued >= lane.spec.max_queue) {
    ++rejected_;
    return false;
  }
  std::uint32_t slot;
  if (!free_work_.empty()) {
    slot = free_work_.back();
    free_work_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(work_.size());
    work_.emplace_back();
  }
  Work& work = work_[slot];
  work.priority = priority;
  work.cpu_cost = cpu_cost;
  work.on_complete = std::move(on_complete);
  work.lane = static_cast<std::uint32_t>(idx);
  if (run_now) {
    run(slot);
    return true;
  }
  if (lane.queued == lane.ring.size()) {
    // Full ring: grow it, unrolled so the FIFO order starts at index 0.
    std::vector<std::uint32_t> grown(std::max<std::size_t>(4, 2 * lane.ring.size()));
    for (std::size_t i = 0; i < lane.queued; ++i) {
      grown[i] = lane.ring[(lane.head + i) % lane.ring.size()];
    }
    lane.ring.swap(grown);
    lane.head = 0;
  }
  lane.ring[(lane.head + lane.queued) % lane.ring.size()] = slot;
  ++lane.queued;
  return true;
}

void ThreadPool::run(std::uint32_t slot) {
  const Work& work = work_[slot];
  ++lanes_[work.lane].busy;
  cpu_.submit_for(work.cpu_cost, mapping_.to_native(work.priority),
                  [this, slot] { finish(slot); });
}

void ThreadPool::finish(std::uint32_t slot) {
  ++completed_;
  // Free the slot before running the work: it may dispatch again.
  const std::size_t lane_idx = work_[slot].lane;
  std::function<void()> fn = std::move(work_[slot].on_complete);
  work_[slot].on_complete = nullptr;
  free_work_.push_back(slot);
  if (fn) fn();
  on_thread_free(lane_idx);
}

void ThreadPool::on_thread_free(std::size_t lane_idx) {
  Lane& lane = lanes_[lane_idx];
  assert(lane.busy > 0);
  --lane.busy;
  if (lane.queued == 0) return;
  const std::uint32_t next = lane.ring[lane.head];
  lane.head = (lane.head + 1) % lane.ring.size();
  --lane.queued;
  run(next);
}

}  // namespace aqm::orb::rt
