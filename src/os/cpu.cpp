#include "os/cpu.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"
#include "obs/telemetry.hpp"

namespace aqm::os {
namespace {

// Effective-priority band for reserve-boosted jobs: above every base
// priority, ordered among themselves by base priority.
constexpr Priority kBoostBand = 10'000;

std::uint64_t mul_div(std::uint64_t a, std::uint64_t num, std::uint64_t den) {
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(a) * num / den);
}

std::uint64_t mul_div_ceil(std::uint64_t a, std::uint64_t num, std::uint64_t den) {
  const auto wide = static_cast<unsigned __int128>(a) * num;
  return static_cast<std::uint64_t>((wide + den - 1) / den);
}

/// A period starting at `start` ends at an instant the clock can hold.
bool boundary_fits(TimePoint start, Duration period) {
  return period.ns() < TimePoint::max().ns() - start.ns();
}

constexpr const char* kBoundaryOverflow =
    "reserve admission denied: period boundary overflows the clock";

}  // namespace

Cpu::Cpu(sim::Engine& engine, std::string name, Config config)
    : engine_(engine), name_(std::move(name)), config_(config) {
  assert(config_.quantum > Duration::zero());
  assert(config_.reserve_utilization_cap > 0.0);
}

Duration Cpu::duration_of(std::uint64_t cycles) const {
  return Duration{static_cast<std::int64_t>(mul_div_ceil(cycles, 1'000'000'000ULL, kCpuHz))};
}

std::uint64_t Cpu::cycles_for(Duration cpu_time) const {
  assert(cpu_time >= Duration::zero());
  return mul_div_ceil(static_cast<std::uint64_t>(cpu_time.ns()), kCpuHz, 1'000'000'000ULL);
}

// --- job slab ---------------------------------------------------------------

void Cpu::release_job(std::uint32_t slot) {
  Job& job = jobs_[slot];
  ready_remove(job);
  if (job.reserve != kNoReserve) detach(job);
  job_index_.erase(job.id);
  job.id = 0;
  job.on_complete = nullptr;
  free_jobs_.push_back(slot);
}

// --- ready index ------------------------------------------------------------

std::size_t Cpu::find_level(Priority priority) const {
  // Descending order: the first level whose priority is not above `priority`.
  const auto it = std::partition_point(
      levels_.begin(), levels_.end(),
      [priority](const Level& l) { return l.priority > priority; });
  return static_cast<std::size_t>(it - levels_.begin());
}

std::size_t Cpu::level_for(Priority priority) {
  const std::size_t i = find_level(priority);
  if (i < levels_.size() && levels_[i].priority == priority) return i;
  levels_.insert(levels_.begin() + static_cast<std::ptrdiff_t>(i), Level{priority, {}});
  if (i <= first_ready_) ++first_ready_;  // the new level is empty
  return i;
}

void Cpu::heap_set(Level& level, std::size_t pos, HeapEntry e) {
  level.heap[pos] = e;
  jobs_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Cpu::sift_up(Level& level, std::size_t pos) {
  const HeapEntry e = level.heap[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (level.heap[parent].rank < e.rank) break;
    heap_set(level, pos, level.heap[parent]);
    pos = parent;
  }
  heap_set(level, pos, e);
}

void Cpu::sift_down(Level& level, std::size_t pos) {
  const HeapEntry e = level.heap[pos];
  const std::size_t n = level.heap.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && level.heap[child + 1].rank < level.heap[child].rank) ++child;
    if (e.rank < level.heap[child].rank) break;
    heap_set(level, pos, level.heap[child]);
    pos = child;
  }
  heap_set(level, pos, e);
}

void Cpu::ready_insert(Job& job, std::uint32_t slot) {
  assert(!job.in_ready);
  const auto ep = effective_priority(job);
  if (!ep) return;  // hard reserve with exhausted budget: suspended
  const std::size_t li = level_for(*ep);
  Level& level = levels_[li];
  level.heap.push_back(HeapEntry{job.queue_rank, slot});
  sift_up(level, level.heap.size() - 1);
  job.ready_level = *ep;
  job.in_ready = true;
  first_ready_ = std::min(first_ready_, li);
  ++ready_count_;
}

void Cpu::ready_remove(Job& job) {
  if (!job.in_ready) return;
  const std::size_t li = find_level(job.ready_level);
  assert(li < levels_.size() && levels_[li].priority == job.ready_level);
  Level& level = levels_[li];
  const std::size_t pos = job.heap_pos;
  const HeapEntry last = level.heap.back();
  level.heap.pop_back();
  if (pos < level.heap.size()) {
    heap_set(level, pos, last);
    sift_up(level, pos);
    sift_down(level, jobs_[last.slot].heap_pos);
  }
  job.in_ready = false;
  --ready_count_;
  while (first_ready_ < levels_.size() && levels_[first_ready_].heap.empty()) ++first_ready_;
}

void Cpu::reindex_attached(ReserveId id) {
  const AttachedList* list = attached_list(id);
  if (list == nullptr) return;
  for (std::uint32_t slot = list->head; slot != kNil; slot = jobs_[slot].attached_next) {
    reindex_job(jobs_[slot], slot);
  }
}

// --- reserve membership -----------------------------------------------------

Cpu::AttachedList* Cpu::attached_list(ReserveId id) {
  for (AttachedList& list : attached_) {
    if (list.reserve == id) return &list;
  }
  return nullptr;
}

void Cpu::attach(Job& job, std::uint32_t slot) {
  AttachedList* list = attached_list(job.reserve);
  if (list == nullptr) list = &attached_.emplace_back(AttachedList{job.reserve});
  job.attached_prev = kNil;
  job.attached_next = list->head;
  if (list->head != kNil) jobs_[list->head].attached_prev = slot;
  list->head = slot;
}

void Cpu::detach(Job& job) {
  AttachedList* list = attached_list(job.reserve);
  assert(list != nullptr);
  if (job.attached_prev != kNil) {
    jobs_[job.attached_prev].attached_next = job.attached_next;
  } else {
    list->head = job.attached_next;
  }
  if (job.attached_next != kNil) jobs_[job.attached_next].attached_prev = job.attached_prev;
  job.attached_prev = job.attached_next = kNil;
  if (list->head == kNil) {  // the last job left
    *list = attached_.back();
    attached_.pop_back();
  }
}

// --- job submission ---------------------------------------------------------

JobId Cpu::submit(std::uint64_t cycles, Priority priority, std::function<void()> on_complete,
                  ReserveId reserve) {
  const JobId id = next_job_id_++;
  std::uint32_t slot;
  if (!free_jobs_.empty()) {
    slot = free_jobs_.back();
    free_jobs_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(jobs_.size());
    jobs_.emplace_back();
  }
  Job& job = jobs_[slot];
  job.id = id;
  job.cycles_remaining = cycles;
  job.base_priority = priority;
  job.reserve = reserve;
  job.on_complete = std::move(on_complete);
  job.queue_rank = next_rank_++;
  job.in_ready = false;
  job_index_.insert(id, slot);
  if (reserve != kNoReserve) attach(job, slot);
  ready_insert(job, slot);
  reschedule();
  return id;
}

JobId Cpu::submit_for(Duration cpu_time, Priority priority, std::function<void()> on_complete,
                      ReserveId reserve) {
  return submit(cycles_for(cpu_time), priority, std::move(on_complete), reserve);
}

bool Cpu::cancel(JobId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNil) return false;
  if (running_ && *running_ == id) {
    charge_running();
    clear_pending_events();
    running_.reset();
  }
  release_job(slot);
  reschedule();
  return true;
}

obs::TraceRecorder* Cpu::os_tracer() {
  obs::TraceRecorder* tr = engine_.tracer_for(obs::TraceCategory::Os);
  if (tr != nullptr && obs_bound_ != tr->uid()) {
    obs_track_ = tr->track("cpu:" + name_);
    obs_bound_ = tr->uid();
  }
  return tr;
}

std::optional<Priority> Cpu::base_priority(JobId id) const {
  const Job* job = find_job(id);
  if (job == nullptr) return std::nullopt;
  return job->base_priority;
}

// --- reserves ---------------------------------------------------------------

Result<ReserveId> Cpu::create_reserve(const ReserveSpec& spec) {
  if (spec.compute <= Duration::zero() || spec.period <= Duration::zero() ||
      spec.compute > spec.period) {
    return Result<ReserveId>::err("invalid reserve spec: need 0 < compute <= period");
  }
  if (!boundary_fits(engine_.now(), spec.period)) {
    return Result<ReserveId>::err(kBoundaryOverflow);
  }
  if (reserved_utilization() + spec.utilization() > config_.reserve_utilization_cap) {
    return Result<ReserveId>::err("reserve admission denied: utilization cap exceeded");
  }
  const ReserveId id = next_reserve_id_++;
  reserves_.push_back(Reserve{id, spec, spec.compute, engine_.now()});  // full budget
  AQM_DEBUG() << "cpu " << name_ << ": reserve " << id << " admitted ("
              << spec.compute.millis() << "ms/" << spec.period.millis() << "ms)";
  if (obs::TraceRecorder* tr = os_tracer()) {
    tr->instant(obs::TraceCategory::Os, "reserve.admit", obs_track_, engine_.now(),
                tr->current(),
                {{"compute_ms", spec.compute.millis()}, {"period_ms", spec.period.millis()}});
  }
  // Jobs submitted against this id before the reserve existed are boosted
  // from now on.
  reindex_attached(id);
  reschedule();
  return id;
}

Status<std::string> Cpu::update_reserve(ReserveId id, const ReserveSpec& spec) {
  if (spec.compute <= Duration::zero() || spec.period <= Duration::zero() ||
      spec.compute > spec.period) {
    return Status<std::string>::err("invalid reserve spec: need 0 < compute <= period");
  }
  Reserve* const found = find_reserve(id);
  if (found == nullptr) {
    return Status<std::string>::err("unknown reserve");
  }
  Reserve& r = *found;
  if (r.spec.compute == spec.compute && r.spec.period == spec.period &&
      r.spec.hard == spec.hard) {
    return {};  // idempotent: re-stamping the current spec touches nothing
  }
  // Settle the running slice and any due replenishments under the OLD
  // parameters first, so consumed-budget accounting can't straddle specs.
  reschedule();
  if (!boundary_fits(r.period_start, spec.period)) {
    return Status<std::string>::err(kBoundaryOverflow);
  }
  // Admission with the reserve's own old utilization excluded: summed over
  // reserves_ in id order with the candidate substituted.
  double candidate_sum = 0.0;
  for (const Reserve& other : reserves_) {
    candidate_sum += (other.id == id ? spec : other.spec).utilization();
  }
  if (candidate_sum > config_.reserve_utilization_cap) {
    return Status<std::string>::err("reserve admission denied: utilization cap exceeded");
  }
  const Duration consumed = std::max(Duration::zero(), r.spec.compute - r.budget);
  r.spec = spec;
  r.budget = std::max(Duration::zero(), spec.compute - consumed);
  AQM_DEBUG() << "cpu " << name_ << ": reserve " << id << " re-stamped ("
              << spec.compute.millis() << "ms/" << spec.period.millis() << "ms)";
  if (obs::TraceRecorder* tr = os_tracer()) {
    tr->instant(obs::TraceCategory::Os, "reserve.update", obs_track_, engine_.now(),
                tr->current(),
                {{"compute_ms", spec.compute.millis()}, {"period_ms", spec.period.millis()}});
  }
  // Re-place attached jobs: the resize may have flipped the boost state in
  // either direction (budget gained or clamped to zero).
  reindex_attached(id);
  reschedule();
  return {};
}

void Cpu::destroy_reserve(ReserveId id) {
  const Reserve* const r = find_reserve(id);
  if (r == nullptr) return;
  reserves_.erase(reserves_.begin() + (r - reserves_.data()));
  // Jobs that referenced the reserve fall back to base priority.
  reindex_attached(id);
  reschedule();
}

const Cpu::Reserve* Cpu::find_reserve(ReserveId id) const {
  const auto it = std::lower_bound(
      reserves_.begin(), reserves_.end(), id,
      [](const Reserve& r, ReserveId key) { return r.id < key; });
  return it != reserves_.end() && it->id == id ? &*it : nullptr;
}

double Cpu::reserved_utilization() const {
  double sum = 0.0;
  for (const Reserve& r : reserves_) sum += r.spec.utilization();
  return sum;
}

Duration Cpu::reserve_budget(ReserveId id) const {
  const Reserve* const found = find_reserve(id);
  if (found == nullptr) return Duration::zero();
  const Reserve& r = *found;
  const TimePoint now = engine_.now();
  Duration budget = r.budget;
  TimePoint period_start = r.period_start;
  // Lazy replenishment view: crossing a boundary refills the budget.
  if (now >= period_start + r.spec.period) {
    const std::int64_t k = (now - period_start).ns() / r.spec.period.ns();
    period_start = period_start + r.spec.period * k;
    budget = r.spec.compute;
  }
  // Account for depletion by the currently running boosted job. The wake
  // event interrupts at boundaries, so the running slice never straddles
  // one by more than scheduling latency.
  if (running_ && running_boosted_) {
    const Job* job = find_job(*running_);
    if (job != nullptr && job->reserve == id) {
      const TimePoint from = std::max(run_start_, period_start);
      budget = std::max(Duration::zero(), budget - (now - from));
    }
  }
  return budget;
}

// --- introspection ----------------------------------------------------------

Duration Cpu::busy_time() const {
  std::int64_t ns = busy_ns_;
  if (running_) ns += (engine_.now() - run_start_).ns();
  return Duration{ns};
}

double Cpu::utilization() const {
  const std::int64_t elapsed = engine_.now().ns();
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(busy_time().ns()) / static_cast<double>(elapsed);
}

void Cpu::export_metrics(obs::MetricsRegistry& reg, std::string_view prefix) const {
  const std::string p(prefix);
  reg.gauge(p + ".utilization").set(utilization());
  reg.gauge(p + ".reserved_utilization").set(reserved_utilization());
  reg.counter(p + ".busy_ns").set(static_cast<std::uint64_t>(busy_time().ns()));
  reg.counter(p + ".reserves").set(reserves_.size());
  reg.counter(p + ".jobs_pending").set(job_count());
  reg.counter(p + ".jobs_runnable").set(runnable_count());
}

std::optional<Priority> Cpu::running_priority() const {
  if (!running_) return std::nullopt;
  const Job* job = find_job(*running_);
  if (job == nullptr) return std::nullopt;
  return effective_priority(*job);
}

std::optional<Priority> Cpu::effective_priority(const Job& job) const {
  if (job.reserve != kNoReserve) {
    if (const Reserve* r = find_reserve(job.reserve)) {
      if (r->budget > Duration::zero()) return kBoostBand + job.base_priority;
      if (r->spec.hard) return std::nullopt;  // suspended until replenish
    }
  }
  return job.base_priority;
}

bool Cpu::is_boosted(const Job& job) const {
  if (job.reserve == kNoReserve) return false;
  const Reserve* r = find_reserve(job.reserve);
  return r != nullptr && r->budget > Duration::zero();
}

// --- scheduling core --------------------------------------------------------

void Cpu::charge_running() {
  if (!running_) return;
  Job* const running = find_job(*running_);
  assert(running != nullptr);
  Job& job = *running;
  const Duration elapsed = engine_.now() - run_start_;
  assert(elapsed >= Duration::zero());
  if (elapsed == Duration::zero()) return;

  const std::uint64_t used = std::min(
      job.cycles_remaining,
      mul_div(static_cast<std::uint64_t>(elapsed.ns()), kCpuHz, 1'000'000'000ULL));
  job.cycles_remaining -= used;
  busy_ns_ += elapsed.ns();

  if (running_boosted_) {
    if (Reserve* r = find_reserve(job.reserve)) {
      r->budget = std::max(Duration::zero(), r->budget - elapsed);
      if (r->budget == Duration::zero()) {
        if (obs::TraceRecorder* tr = os_tracer()) {
          tr->instant(obs::TraceCategory::Os, "reserve.deplete", obs_track_,
                      engine_.now(), 0,
                      {{"reserve", static_cast<double>(job.reserve)},
                       {"hard", r->spec.hard ? 1.0 : 0.0}});
        }
        if (obs::TelemetryHub* th = engine_.telemetry()) {
          th->on_reserve_overrun(static_cast<std::uint64_t>(job.reserve),
                                 engine_.now());
        }
        // Boost state flipped: attached jobs drop out of the boost band
        // (hard: out of the ready index entirely until replenishment).
        reindex_attached(job.reserve);
      }
    }
  }
  if (trace_enabled_) {
    trace_.push_back(RunSlice{job.id,
                              effective_priority(job).value_or(job.base_priority),
                              running_boosted_ ? job.reserve : kNoReserve,
                              running_boosted_, run_start_, engine_.now()});
  }
  run_start_ = engine_.now();
}

void Cpu::clear_pending_events() {
  if (completion_event_.valid()) engine_.cancel(completion_event_);
  if (limit_event_.valid()) engine_.cancel(limit_event_);
  if (reserve_wake_event_.valid()) engine_.cancel(reserve_wake_event_);
  completion_event_ = sim::EventId{};
  limit_event_ = sim::EventId{};
  reserve_wake_event_ = sim::EventId{};
}

void Cpu::roll_periods() {
  // One id-order pass, so replenish trace instants at a shared boundary come
  // out in reserve-id order.
  const TimePoint now = engine_.now();
  for (Reserve& r : reserves_) {
    if (now < boundary_of(r)) continue;
    const std::int64_t k = (now - r.period_start).ns() / r.spec.period.ns();
    r.period_start = r.period_start + r.spec.period * k;
    const bool was_exhausted = r.budget == Duration::zero();
    r.budget = r.spec.compute;  // unused budget does not accumulate
    // Suspended (hard) and demoted (soft) jobs re-enter the boost band.
    if (was_exhausted) reindex_attached(r.id);
    if (obs::TraceRecorder* tr = os_tracer()) {
      tr->instant(obs::TraceCategory::Os, "reserve.replenish", obs_track_, now, 0,
                  {{"reserve", static_cast<double>(r.id)},
                   {"budget_ms", r.budget.millis()}});
    }
  }
}

void Cpu::arm_reserve_wake() {
  // Wake the scheduler at the next period boundary of any reserve that has
  // jobs attached, so suspended jobs resume and budgets refresh on time.
  // Idle reserves arm nothing, which keeps the event queue drainable.
  TimePoint next = TimePoint::max();
  for (const Reserve& r : reserves_) {
    if (boundary_of(r) < next && attached_list(r.id) != nullptr) next = boundary_of(r);
  }
  if (next == TimePoint::max()) return;
  reserve_wake_event_ = engine_.at(next, [this] {
    reserve_wake_event_ = sim::EventId{};
    reschedule();
  });
}

void Cpu::reschedule() {
  charge_running();
  clear_pending_events();
  running_.reset();
  running_boosted_ = false;
  roll_periods();
  arm_reserve_wake();

  // Run the runnable job with the highest effective priority; FIFO within
  // a level (smallest queue_rank first): the top of the first ready level.
  if (first_ready_ == levels_.size()) return;  // idle
  Job* const best = &jobs_[levels_[first_ready_].heap.front().slot];

  running_ = best->id;
  running_boosted_ = is_boosted(*best);
  run_start_ = engine_.now();

  const Duration to_completion = duration_of(best->cycles_remaining);

  // The running job may be stopped early by reserve-budget exhaustion or by
  // quantum expiry (round-robin with an equal-priority peer).
  Duration limit = Duration::max();
  if (running_boosted_) limit = find_reserve(best->reserve)->budget;
  // The running job sits at the top of its level heap; any second entry is
  // an equal-effective-priority peer to round-robin with.
  if (config_.quantum < Duration::max() && levels_[first_ready_].heap.size() > 1) {
    limit = std::min(limit, config_.quantum);
  }

  if (to_completion <= limit) {
    completion_event_ =
        engine_.after(to_completion, [this, id = best->id] { complete(id); });
  } else {
    limit_event_ = engine_.after(limit, [this] {
      limit_event_ = sim::EventId{};
      // Rotate the interrupted job behind its equal-priority peers, then
      // re-evaluate. Budget exhaustion is picked up by effective_priority()
      // after charge_running() updates the reserve.
      if (running_) {
        const std::uint32_t slot = slot_of(*running_);
        if (slot != kNil) {
          Job& job = jobs_[slot];
          ready_remove(job);
          job.queue_rank = next_rank_++;
          ready_insert(job, slot);
        }
      }
      reschedule();
    });
  }
}

void Cpu::complete(JobId id) {
  completion_event_ = sim::EventId{};
  assert(running_ && *running_ == id);
  charge_running();
  clear_pending_events();
  running_.reset();
  running_boosted_ = false;

  const std::uint32_t slot = slot_of(id);
  assert(slot != kNil);
  // Completion was scheduled for the exact finish instant; rounding in
  // charge_running() can leave a sub-nanosecond residue of cycles.
  jobs_[slot].cycles_remaining = 0;
  auto on_complete = std::move(jobs_[slot].on_complete);
  release_job(slot);

  reschedule();
  if (on_complete) on_complete();
}

}  // namespace aqm::os
