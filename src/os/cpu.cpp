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

}  // namespace

Cpu::Cpu(sim::Engine& engine, std::string name, Config config)
    : engine_(engine), name_(std::move(name)), config_(config) {
  assert(config_.hz > 0);
  assert(config_.quantum > Duration::zero());
  assert(config_.reserve_utilization_cap > 0.0);
}

Duration Cpu::duration_of(std::uint64_t cycles) const {
  return Duration{static_cast<std::int64_t>(mul_div_ceil(cycles, 1'000'000'000ULL, config_.hz))};
}

std::uint64_t Cpu::cycles_for(Duration cpu_time) const {
  assert(cpu_time >= Duration::zero());
  return mul_div_ceil(static_cast<std::uint64_t>(cpu_time.ns()), config_.hz, 1'000'000'000ULL);
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
  const std::uint32_t pos = attached_index_.find(id);
  if (pos == kNoSlot) return;
  for (std::uint32_t slot = attached_[pos].head; slot != kNil;
       slot = jobs_[slot].attached_next) {
    reindex_job(jobs_[slot], slot);
  }
}

// --- reserve membership -----------------------------------------------------

std::uint32_t Cpu::attached_count(ReserveId id) const {
  const std::uint32_t pos = attached_index_.find(id);
  return pos == kNoSlot ? 0 : attached_[pos].count;
}

bool Cpu::attach(Job& job, std::uint32_t slot) {
  std::uint32_t pos = attached_index_.find(job.reserve);
  if (pos == kNoSlot) {
    if (!free_attached_.empty()) {
      pos = free_attached_.back();
      free_attached_.pop_back();
    } else {
      pos = static_cast<std::uint32_t>(attached_.size());
      attached_.emplace_back();
    }
    attached_[pos] = AttachedList{};
    attached_index_.insert(job.reserve, pos);
  }
  AttachedList& list = attached_[pos];
  job.attached_prev = kNil;
  job.attached_next = list.head;
  if (list.head != kNil) jobs_[list.head].attached_prev = slot;
  list.head = slot;
  return ++list.count == 1;
}

void Cpu::detach(Job& job) {
  const std::uint32_t pos = attached_index_.find(job.reserve);
  assert(pos != kNoSlot);
  AttachedList& list = attached_[pos];
  if (job.attached_prev != kNil) {
    jobs_[job.attached_prev].attached_next = job.attached_next;
  } else {
    list.head = job.attached_next;
  }
  if (job.attached_next != kNil) jobs_[job.attached_next].attached_prev = job.attached_prev;
  job.attached_prev = job.attached_next = kNil;
  if (--list.count == 0) {
    attached_index_.erase(job.reserve);
    free_attached_.push_back(pos);
  }
}

void Cpu::push_wake(const Reserve& r) {
  wake_heap_.push({boundary_of(r).ns(), r.id});
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
  if (reserve != kNoReserve && attach(job, slot)) {
    // First attached job: the wake heap may hold no live entry for this
    // reserve (entries go stale when the list drains), so seed one.
    const auto rit = reserves_.find(reserve);
    if (rit != reserves_.end()) push_wake(rit->second);
  }
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
  if (reserved_utilization() + spec.utilization() > config_.reserve_utilization_cap) {
    return Result<ReserveId>::err("reserve admission denied: utilization cap exceeded");
  }
  const ReserveId id = next_reserve_id_++;
  Reserve r;
  r.id = id;
  r.spec = spec;
  r.budget = spec.compute;  // starts with a full budget
  r.period_start = engine_.now();
  const auto [rit, inserted] = reserves_.emplace(id, std::move(r));
  assert(inserted);
  (void)inserted;
  reserved_util_sum_ += spec.utilization();
  AQM_DEBUG() << "cpu " << name_ << ": reserve " << id << " admitted ("
              << spec.compute.millis() << "ms/" << spec.period.millis() << "ms)";
  if (obs::TraceRecorder* tr = os_tracer()) {
    tr->instant(obs::TraceCategory::Os, "reserve.admit", obs_track_, engine_.now(),
                tr->current(),
                {{"compute_ms", spec.compute.millis()}, {"period_ms", spec.period.millis()}});
  }
  replenish_heap_.push({boundary_of(rit->second).ns(), id});
  if (attached_count(id) > 0) {
    // Jobs submitted against this id before the reserve existed are
    // boosted from now on.
    push_wake(rit->second);
    reindex_attached(id);
  }
  reschedule();
  return id;
}

Status<std::string> Cpu::update_reserve(ReserveId id, const ReserveSpec& spec) {
  if (spec.compute <= Duration::zero() || spec.period <= Duration::zero() ||
      spec.compute > spec.period) {
    return Status<std::string>::err("invalid reserve spec: need 0 < compute <= period");
  }
  const auto it = reserves_.find(id);
  if (it == reserves_.end()) {
    return Status<std::string>::err("unknown reserve");
  }
  Reserve& r = it->second;
  if (r.spec.compute == spec.compute && r.spec.period == spec.period &&
      r.spec.hard == spec.hard) {
    return {};  // idempotent: re-stamping the current spec touches nothing
  }
  // Settle the running slice and any due replenishments under the OLD
  // parameters first, so consumed-budget accounting can't straddle specs.
  reschedule();
  // Admission with the reserve's own old utilization excluded. Summed over
  // reserves_ in id order with the candidate substituted, so the admitted
  // value is bit-identical to a fresh summation.
  double candidate_sum = 0.0;
  for (const auto& [rid, other] : reserves_) {
    candidate_sum += (rid == id ? spec : other.spec).utilization();
  }
  if (candidate_sum > config_.reserve_utilization_cap) {
    return Status<std::string>::err("reserve admission denied: utilization cap exceeded");
  }
  const Duration consumed = std::max(Duration::zero(), r.spec.compute - r.budget);
  r.spec = spec;
  r.budget = std::max(Duration::zero(), spec.compute - consumed);
  reserved_util_sum_ = candidate_sum;
  AQM_DEBUG() << "cpu " << name_ << ": reserve " << id << " re-stamped ("
              << spec.compute.millis() << "ms/" << spec.period.millis() << "ms)";
  if (obs::TraceRecorder* tr = os_tracer()) {
    tr->instant(obs::TraceCategory::Os, "reserve.update", obs_track_, engine_.now(),
                tr->current(),
                {{"compute_ms", spec.compute.millis()}, {"period_ms", spec.period.millis()}});
  }
  // The boundary moved with the new period: push a fresh replenish entry
  // (the old one goes stale and is skipped lazily) and re-place attached
  // jobs — the resize may have flipped the boost state in either direction
  // (budget gained or clamped to zero).
  replenish_heap_.push({boundary_of(r).ns(), id});
  if (attached_count(id) > 0) push_wake(r);
  reindex_attached(id);
  reschedule();
  return {};
}

void Cpu::destroy_reserve(ReserveId id) {
  const auto it = reserves_.find(id);
  if (it == reserves_.end()) return;
  reserves_.erase(it);
  // Recompute in id order rather than subtracting: bit-identical to a fresh
  // summation, so float drift can never skew admission. Destroys are rare
  // control-plane events; admissions stay O(1).
  reserved_util_sum_ = 0.0;
  for (const auto& [rid, r] : reserves_) reserved_util_sum_ += r.spec.utilization();
  // Jobs that referenced the reserve fall back to base priority; heap
  // entries for the dead id are skipped lazily.
  reindex_attached(id);
  reschedule();
}

Duration Cpu::reserve_budget(ReserveId id) const {
  const auto it = reserves_.find(id);
  if (it == reserves_.end()) return Duration::zero();
  const Reserve& r = it->second;
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
    const auto it = reserves_.find(job.reserve);
    if (it != reserves_.end()) {
      if (it->second.budget > Duration::zero()) return kBoostBand + job.base_priority;
      if (it->second.spec.hard) return std::nullopt;  // suspended until replenish
    }
  }
  return job.base_priority;
}

bool Cpu::is_boosted(const Job& job) const {
  if (job.reserve == kNoReserve) return false;
  const auto it = reserves_.find(job.reserve);
  return it != reserves_.end() && it->second.budget > Duration::zero();
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
      mul_div(static_cast<std::uint64_t>(elapsed.ns()), config_.hz, 1'000'000'000ULL));
  job.cycles_remaining -= used;
  busy_ns_ += elapsed.ns();

  if (running_boosted_) {
    const auto rit = reserves_.find(job.reserve);
    if (rit != reserves_.end()) {
      rit->second.budget = std::max(Duration::zero(), rit->second.budget - elapsed);
      if (rit->second.budget == Duration::zero()) {
        if (obs::TraceRecorder* tr = os_tracer()) {
          tr->instant(obs::TraceCategory::Os, "reserve.deplete", obs_track_,
                      engine_.now(), 0,
                      {{"reserve", static_cast<double>(job.reserve)},
                       {"hard", rit->second.spec.hard ? 1.0 : 0.0}});
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
  const TimePoint now = engine_.now();
  // Pop due boundaries off the min-heap; the common case (nothing due) is a
  // single comparison and touches neither reserves nor the tracer.
  if (replenish_heap_.empty() || replenish_heap_.top().first > now.ns()) return;
  std::vector<ReserveId>& due = due_;
  due.clear();
  while (!replenish_heap_.empty() && replenish_heap_.top().first <= now.ns()) {
    const auto [at_ns, id] = replenish_heap_.top();
    replenish_heap_.pop();
    const auto it = reserves_.find(id);
    if (it == reserves_.end()) continue;                  // destroyed: stale
    if (boundary_of(it->second).ns() != at_ns) continue;  // boundary moved: stale
    due.push_back(id);
  }
  if (due.empty()) return;
  // Replenish in id order, so the emitted trace instants come out in
  // reserve-id order whatever order the heap held them in.
  std::sort(due.begin(), due.end());
  obs::TraceRecorder* tr = os_tracer();
  for (const ReserveId id : due) {
    Reserve& r = reserves_.find(id)->second;
    const std::int64_t k = (now - r.period_start).ns() / r.spec.period.ns();
    r.period_start = r.period_start + r.spec.period * k;
    const bool was_exhausted = r.budget == Duration::zero();
    r.budget = r.spec.compute;  // unused budget does not accumulate
    replenish_heap_.push({boundary_of(r).ns(), id});
    if (attached_count(id) > 0) {
      push_wake(r);
      // Suspended (hard) and demoted (soft) jobs re-enter the boost band.
      if (was_exhausted) reindex_attached(id);
    }
    if (tr != nullptr) {
      tr->instant(obs::TraceCategory::Os, "reserve.replenish", obs_track_, now, 0,
                  {{"reserve", static_cast<double>(id)},
                   {"budget_ms", r.budget.millis()}});
    }
  }
}

void Cpu::arm_reserve_wake() {
  // Wake the scheduler at the next period boundary of any reserve that has
  // jobs attached, so suspended jobs resume and budgets refresh on time.
  // Idle reserves arm nothing, which keeps the event queue drainable. The
  // earliest live wake-heap entry IS the next boundary of an attached
  // reserve (entries are pushed on first attach and on every
  // replenish while attached, and a live entry is never popped as stale).
  while (!wake_heap_.empty()) {
    const auto [at_ns, id] = wake_heap_.top();
    const auto rit = reserves_.find(id);
    const bool live = rit != reserves_.end() && boundary_of(rit->second).ns() == at_ns &&
                      attached_count(id) > 0;
    if (!live) {
      wake_heap_.pop();
      continue;
    }
    reserve_wake_event_ = engine_.at(TimePoint{at_ns}, [this] {
      reserve_wake_event_ = sim::EventId{};
      reschedule();
    });
    return;
  }
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
  if (running_boosted_) {
    limit = reserves_.at(best->reserve).budget;
  }
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
