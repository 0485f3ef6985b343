// Reference model of os::Cpu for differential tests.
//
// The same fixed-priority scheduler with TimeSys-style reserves, written as
// a literal scan: every scheduling decision walks all jobs, every period
// roll walks all reserves, and jobs and reserves live in ordered maps. It
// has none of the production scheduler's job indexes (ready heaps, the job
// slab, attached lists), so agreement between the two is evidence that
// those indexes are exact.
//
// Semantics, shared with os::Cpu:
//  * the runnable job with the highest effective priority runs; ties go to
//    the smallest queue rank (FIFO);
//  * a job whose reserve has budget runs in a boost band above every base
//    priority; an exhausted hard reserve suspends its jobs, an exhausted
//    soft reserve leaves them at base priority;
//  * budgets refill lazily at period boundaries, and the scheduler wakes at
//    the next boundary of any reserve with attached jobs;
//  * equal-priority peers rotate every quantum (the interrupted job gets a
//    fresh rank);
//  * admission bounds sum(C/T), summed over live reserves in id order, and
//    refuses a period whose end the clock cannot represent.
//
// Job and reserve ids, run-trace slices (os::Cpu::RunSlice) and admission
// error strings match os::Cpu, so outcomes compare directly. Observability
// hooks (trace instants, telemetry) are left out.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/time.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

namespace aqm::oracle {

class ScanCpu {
 public:
  ScanCpu(sim::Engine& engine, os::CpuConfig config);
  ScanCpu(const ScanCpu&) = delete;
  ScanCpu& operator=(const ScanCpu&) = delete;

  os::JobId submit(std::uint64_t cycles, os::Priority priority, std::function<void()> on_complete,
                   os::ReserveId reserve = os::kNoReserve);
  bool cancel(os::JobId id);

  Result<os::ReserveId> create_reserve(const os::ReserveSpec& spec);
  Status<std::string> update_reserve(os::ReserveId id, const os::ReserveSpec& spec);
  void destroy_reserve(os::ReserveId id);

  [[nodiscard]] Duration reserve_budget(os::ReserveId id) const;
  [[nodiscard]] double reserved_utilization() const;
  [[nodiscard]] std::size_t job_count() const { return jobs_.size(); }
  [[nodiscard]] std::size_t runnable_count() const;
  [[nodiscard]] Duration busy_time() const;

  void enable_trace(bool on) { trace_enabled_ = on; }
  [[nodiscard]] const std::vector<os::Cpu::RunSlice>& trace() const { return trace_; }

 private:
  struct Job {
    std::uint64_t cycles_remaining = 0;
    os::Priority base_priority = os::kDefaultPriority;
    os::ReserveId reserve = os::kNoReserve;
    std::function<void()> on_complete;
    std::uint64_t queue_rank = 0;
  };
  struct Reserve {
    os::ReserveSpec spec;
    Duration budget = Duration::zero();
    TimePoint period_start{};
  };

  [[nodiscard]] std::optional<os::Priority> effective_priority(const Job& job) const;
  [[nodiscard]] bool is_boosted(const Job& job) const;
  [[nodiscard]] Duration duration_of(std::uint64_t cycles) const;

  void charge_running();
  void clear_pending_events();
  void roll_periods();
  void arm_reserve_wake();
  void reschedule();
  void complete(os::JobId id);

  sim::Engine& engine_;
  os::CpuConfig config_;
  std::map<os::JobId, Job> jobs_;
  std::map<os::ReserveId, Reserve> reserves_;
  os::JobId next_job_id_ = 1;
  os::ReserveId next_reserve_id_ = 1;
  std::uint64_t next_rank_ = 1;

  std::optional<os::JobId> running_;
  bool running_boosted_ = false;
  TimePoint run_start_{};
  sim::EventId completion_event_{};
  sim::EventId limit_event_{};
  sim::EventId reserve_wake_event_{};

  std::int64_t busy_ns_ = 0;
  bool trace_enabled_ = false;
  std::vector<os::Cpu::RunSlice> trace_;
};

}  // namespace aqm::oracle
