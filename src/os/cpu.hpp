// Simulated single-core CPU with a preemptive fixed-priority scheduler and
// TimeSys-style resource-kernel CPU reserves.
//
// Scheduling model
// ----------------
//  * Work arrives as jobs with a cycle cost, a base priority and an optional
//    attached reserve. The highest effective-priority runnable job runs.
//  * Within one priority level jobs share the CPU round-robin with a
//    configurable quantum (vanilla-Linux-like timesharing). Preemption by a
//    higher priority job is immediate. Setting the quantum to Duration::max()
//    yields SCHED_FIFO run-to-completion semantics.
//  * A reserve guarantees `compute` CPU time every `period` (the TimeSys
//    resource-kernel model [TimeSys:01]). While a reserve has budget, jobs
//    attached to it run in a boosted band above all non-reserved work and
//    deplete the budget 1:1 with CPU time. On exhaustion a *hard* reserve
//    suspends its jobs until the next replenishment; a *soft* reserve lets
//    them continue at their base priority. Budgets replenish to `compute`
//    every `period`.
//  * Reserve admission control enforces sum(C_i/T_i) <= utilization cap.
//
// Job-side scheduling decisions are indexed, not scanned (DESIGN.md §9),
// and the steady state allocates nothing: jobs live in a recycled slab
// addressed through a FlatIndex, runnable jobs sit in
// per-effective-priority-level rank-ordered min-heaps under a descending
// level vector (levels are never erased), and each reserve id keeps an
// intrusive list of its attached jobs — so submit/complete/cancel cost is
// independent of the number of pending jobs. Reserves are one per
// application (a handful per CPU), so they sit in one id-ordered vector
// that period rolls, wake arming and the utilization sum simply scan.
// tests/test_cpu_sched_diff drives this scheduler and an O(n)-scan
// reference model that lives with the tests through randomized workloads
// and asserts identical traces.
//
// The scheduler records an optional run trace (contiguous slices of which
// job ran at what effective priority) that property tests use to check the
// "no lower-priority job runs while a higher-priority job is runnable"
// invariant and reserve guarantees.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_index.hpp"
#include "common/result.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "os/priority.hpp"
#include "sim/engine.hpp"

namespace aqm::os {

using JobId = std::uint64_t;
using ReserveId = std::uint64_t;
inline constexpr ReserveId kNoReserve = 0;

/// Parameters of a CPU reserve: `compute` time guaranteed every `period`.
struct ReserveSpec {
  Duration compute;
  Duration period;
  bool hard = true;

  [[nodiscard]] double utilization() const {
    return static_cast<double>(compute.ns()) / static_cast<double>(period.ns());
  }

  friend bool operator==(const ReserveSpec&, const ReserveSpec&) = default;
};

/// Clock rate of every simulated CPU: 1 GHz, like the paper's testbed.
inline constexpr std::uint64_t kCpuHz = 1'000'000'000;

struct CpuConfig {
  Duration quantum = milliseconds(10);    // round-robin slice within a priority
  double reserve_utilization_cap = 0.9;   // admission bound for sum(C/T)
};

class Cpu {
 public:
  using Config = CpuConfig;

  Cpu(sim::Engine& engine, std::string name, Config config = {});
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  // --- job submission -----------------------------------------------------

  /// Submits a job costing `cycles` CPU cycles at `priority`. The completion
  /// callback runs (in simulation time) the instant the job finishes.
  JobId submit(std::uint64_t cycles, Priority priority, std::function<void()> on_complete,
               ReserveId reserve = kNoReserve);

  /// Convenience: submits a job sized so it takes `cpu_time` of pure
  /// execution on this CPU.
  JobId submit_for(Duration cpu_time, Priority priority, std::function<void()> on_complete,
                   ReserveId reserve = kNoReserve);

  /// Cancels a pending or running job (its completion callback never runs).
  /// Returns false if the job already completed or does not exist.
  bool cancel(JobId id);

  /// Current base priority of a job, if it exists.
  [[nodiscard]] std::optional<Priority> base_priority(JobId id) const;

  // --- reserves -------------------------------------------------------------

  /// Creates a reserve if admission control admits it.
  Result<ReserveId> create_reserve(const ReserveSpec& spec);

  /// Resizes a live reserve in place — the control-plane re-stamp primitive.
  /// Admission re-checks sum(C/T) with the reserve's own old utilization
  /// excluded; on success the current period keeps its phase (period_start
  /// is untouched) and the remaining budget becomes
  /// max(0, new compute - consumed-this-period), so re-applying the same
  /// spec is a no-op (idempotent) and a resize can never mint back budget
  /// the jobs already burned. Attached jobs stay attached throughout: no
  /// detach-reattach, no completion callbacks fire, the ready index is
  /// repaired via reindex_attached.
  Status<std::string> update_reserve(ReserveId id, const ReserveSpec& spec);

  /// Destroys a reserve. Jobs attached to it continue at base priority.
  void destroy_reserve(ReserveId id);

  [[nodiscard]] bool has_reserve(ReserveId id) const { return find_reserve(id) != nullptr; }

  /// Remaining budget in the current period (zero for unknown reserves).
  [[nodiscard]] Duration reserve_budget(ReserveId id) const;

  /// Sum of C/T over all live reserves, summed in id order (DESIGN.md §9).
  [[nodiscard]] double reserved_utilization() const;

  // --- introspection --------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] static constexpr std::uint64_t hz() { return kCpuHz; }
  [[nodiscard]] bool idle() const { return !running_.has_value(); }
  [[nodiscard]] std::size_t job_count() const { return job_index_.size(); }
  /// Jobs runnable right now (pending jobs minus hard-reserve-suspended
  /// ones). O(1).
  [[nodiscard]] std::size_t runnable_count() const { return ready_count_; }
  /// Total CPU time spent executing jobs so far.
  [[nodiscard]] Duration busy_time() const;
  /// busy_time / elapsed simulated time (0 if no time has elapsed).
  [[nodiscard]] double utilization() const;
  [[nodiscard]] Duration duration_of(std::uint64_t cycles) const;
  [[nodiscard]] std::uint64_t cycles_for(Duration cpu_time) const;

  /// Effective priority currently executing, if any.
  [[nodiscard]] std::optional<Priority> running_priority() const;

  /// Dumps utilization/busy-time counters into a registry under
  /// "<prefix>.utilization" etc.
  void export_metrics(obs::MetricsRegistry& reg, std::string_view prefix) const;

  // --- run trace (for tests) ------------------------------------------------

  struct RunSlice {
    JobId job;
    Priority effective_priority;
    ReserveId reserve;  // kNoReserve if the slice ran unboosted
    bool boosted;
    TimePoint start;
    TimePoint end;
  };
  void enable_trace(bool on) { trace_enabled_ = on; }
  [[nodiscard]] const std::vector<RunSlice>& trace() const { return trace_; }

 private:
  static constexpr std::uint32_t kNil = kNoSlot;

  struct Job {
    JobId id = 0;  // 0: free slab slot
    std::uint64_t cycles_remaining = 0;
    Priority base_priority = kDefaultPriority;
    ReserveId reserve = kNoReserve;
    std::function<void()> on_complete;
    std::uint64_t queue_rank = 0;  // FIFO order within a priority level
    // Ready-index placement: which ready level holds the job and where in
    // that level's heap (meaningless while !in_ready; hard-suspended jobs
    // are in no level).
    Priority ready_level = 0;
    std::uint32_t heap_pos = 0;
    bool in_ready = false;
    // Membership in the attached list of `reserve`.
    std::uint32_t attached_prev = kNil;
    std::uint32_t attached_next = kNil;
  };

  struct Reserve {
    ReserveId id = 0;
    ReserveSpec spec;
    Duration budget = Duration::zero();
    /// Start of the current replenishment period. Budgets refresh lazily:
    /// roll_periods() advances this and resets the budget whenever the
    /// clock has crossed one or more period boundaries. A scheduler wake
    /// event is armed at the next boundary only while jobs are attached,
    /// so an idle reserve generates no simulation events.
    TimePoint period_start{};
  };

  /// Live reserve `id`, or nullptr.
  [[nodiscard]] const Reserve* find_reserve(ReserveId id) const;
  [[nodiscard]] Reserve* find_reserve(ReserveId id) {
    return const_cast<Reserve*>(std::as_const(*this).find_reserve(id));
  }

  // Effective priority of a job right now; nullopt when not runnable
  // (hard reserve with exhausted budget).
  [[nodiscard]] std::optional<Priority> effective_priority(const Job& job) const;
  [[nodiscard]] bool is_boosted(const Job& job) const;

  /// Engine recorder iff os tracing is on; binds the "cpu:<name>" lane on
  /// first use and caches the binding per recorder. The hot path only
  /// resolves it when an instant is actually emitted.
  [[nodiscard]] obs::TraceRecorder* os_tracer();

  // --- job slab -----------------------------------------------------------
  /// Slab slot of a live job, or kNil.
  [[nodiscard]] std::uint32_t slot_of(JobId id) const { return job_index_.find(id); }
  [[nodiscard]] Job* find_job(JobId id) {
    const std::uint32_t slot = slot_of(id);
    return slot == kNil ? nullptr : &jobs_[slot];
  }
  [[nodiscard]] const Job* find_job(JobId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot == kNil ? nullptr : &jobs_[slot];
  }
  /// Unlinks the job from every index and returns its slot to the free list.
  void release_job(std::uint32_t slot);

  // --- ready index ------------------------------------------------------------
  /// One effective-priority level: a binary min-heap of (queue_rank, slot).
  /// Ranks are globally unique and monotonically assigned, so heap order
  /// == arrival order; reserve state transitions re-insert jobs at their
  /// existing rank, which keeps the "smallest rank first" tie-break
  /// exact even when a demoted job lands between jobs that were already
  /// queued at that level. Every job records its heap position, so removal
  /// is an exact O(log n) sift: no stale entries pile up when a reserve
  /// transition re-places every attached job.
  struct HeapEntry {
    std::uint64_t rank;
    std::uint32_t slot;
  };
  struct Level {
    Priority priority;
    std::vector<HeapEntry> heap;
  };

  /// Index into levels_ of `priority`, inserting an empty level if new.
  std::size_t level_for(Priority priority);
  [[nodiscard]] std::size_t find_level(Priority priority) const;
  void heap_set(Level& level, std::size_t pos, HeapEntry e);
  void sift_up(Level& level, std::size_t pos);
  void sift_down(Level& level, std::size_t pos);

  void ready_insert(Job& job, std::uint32_t slot);  // no-op (stays out) when not runnable
  void ready_remove(Job& job);                      // no-op when not in a level
  void reindex_job(Job& job, std::uint32_t slot) {
    ready_remove(job);
    ready_insert(job, slot);
  }
  /// Recomputes level placement of every job attached to `id` after a
  /// boost-state transition (exhaust/replenish/create/destroy).
  void reindex_attached(ReserveId id);

  // --- reserve membership -----------------------------------------------------
  /// Live jobs referencing one reserve id, as an intrusive list through
  /// Job::attached_prev/next — including ids with no live reserve (a job
  /// may be submitted against a reserve created later and is boosted the
  /// moment that reserve appears).
  struct AttachedList {
    ReserveId reserve = kNoReserve;
    std::uint32_t head = kNil;
  };
  /// The list of `id`, or nullptr when no live job references it.
  [[nodiscard]] AttachedList* attached_list(ReserveId id);
  void attach(Job& job, std::uint32_t slot);
  void detach(Job& job);

  [[nodiscard]] static TimePoint boundary_of(const Reserve& r) {
    return r.period_start + r.spec.period;
  }

  void charge_running();            // account CPU time of running job up to now()
  void reschedule();                // pick next job, arm completion/limit events
  void complete(JobId id);          // finish a job, fire callback
  void roll_periods();              // lazy budget replenishment
  void arm_reserve_wake();          // wake at the next relevant period boundary
  void clear_pending_events();

  sim::Engine& engine_;
  std::string name_;
  Config config_;

  /// Job slab: live jobs plus recycled free slots, addressed by id through
  /// job_index_. Ids are handed out sequentially and never iterated on the
  /// decision path.
  std::vector<Job> jobs_;
  std::vector<std::uint32_t> free_jobs_;
  FlatIndex<JobId> job_index_;
  /// Live reserves in ascending id order: ids are handed out increasing,
  /// so create appends. Scanned in id order, which orders replenish trace
  /// instants and keeps the utilization sum bit-identical to the oracle's.
  std::vector<Reserve> reserves_;
  JobId next_job_id_ = 1;
  ReserveId next_reserve_id_ = 1;
  std::uint64_t next_rank_ = 1;

  // --- ready index and reserve membership -----------------------------------
  /// Every effective-priority level ever used, highest first. Levels are
  /// never erased, so their heaps keep their capacity; first_ready_ is the
  /// first non-empty one (levels_.size() when nothing is runnable).
  std::vector<Level> levels_;
  std::size_t first_ready_ = 0;
  std::size_t ready_count_ = 0;
  /// One list per reserve id with live jobs; an entry goes when its last
  /// job does.
  std::vector<AttachedList> attached_;

  std::optional<JobId> running_;
  bool running_boosted_ = false;
  TimePoint run_start_{};
  sim::EventId completion_event_{};
  sim::EventId limit_event_{};      // budget exhaustion or quantum expiry
  sim::EventId reserve_wake_event_{};

  std::int64_t busy_ns_ = 0;
  bool trace_enabled_ = false;
  std::vector<RunSlice> trace_;
  std::uint64_t obs_bound_ = 0;  // uid of the recorder obs_track_ belongs to
  std::uint16_t obs_track_ = 0;
};

}  // namespace aqm::os
