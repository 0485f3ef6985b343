#include "oracle/scan_cpu.hpp"

#include <algorithm>
#include <cassert>

namespace aqm::oracle {
namespace {

using os::JobId;
using os::kNoReserve;
using os::Priority;
using os::ReserveId;
using os::ReserveSpec;

// Boost band of os::Cpu: above every base priority.
constexpr Priority kBoostBand = 10'000;

std::uint64_t mul_div(std::uint64_t a, std::uint64_t num, std::uint64_t den) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * num / den);
}

std::uint64_t mul_div_ceil(std::uint64_t a, std::uint64_t num, std::uint64_t den) {
  const auto wide = static_cast<unsigned __int128>(a) * num;
  return static_cast<std::uint64_t>((wide + den - 1) / den);
}

bool valid_spec(const ReserveSpec& spec) {
  return spec.compute > Duration::zero() && spec.period > Duration::zero() &&
         spec.compute <= spec.period;
}

// Admission refuses a period whose end the clock cannot represent.
bool boundary_fits(TimePoint start, Duration period) {
  return period.ns() < TimePoint::max().ns() - start.ns();
}

constexpr const char* kBoundaryOverflow =
    "reserve admission denied: period boundary overflows the clock";

}  // namespace

ScanCpu::ScanCpu(sim::Engine& engine, os::CpuConfig config)
    : engine_(engine), config_(config) {}

Duration ScanCpu::duration_of(std::uint64_t cycles) const {
  return Duration{static_cast<std::int64_t>(mul_div_ceil(cycles, 1'000'000'000ULL, os::kCpuHz))};
}

// --- jobs -------------------------------------------------------------------

JobId ScanCpu::submit(std::uint64_t cycles, Priority priority, std::function<void()> on_complete,
                      ReserveId reserve) {
  const JobId id = next_job_id_++;
  jobs_[id] = Job{cycles, priority, reserve, std::move(on_complete), next_rank_++};
  reschedule();
  return id;
}

bool ScanCpu::cancel(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  if (running_ && *running_ == id) {
    charge_running();
    clear_pending_events();
    running_.reset();
  }
  jobs_.erase(it);
  reschedule();
  return true;
}

// --- reserves ---------------------------------------------------------------

Result<ReserveId> ScanCpu::create_reserve(const ReserveSpec& spec) {
  if (!valid_spec(spec)) {
    return Result<ReserveId>::err("invalid reserve spec: need 0 < compute <= period");
  }
  if (!boundary_fits(engine_.now(), spec.period)) return Result<ReserveId>::err(kBoundaryOverflow);
  if (reserved_utilization() + spec.utilization() > config_.reserve_utilization_cap) {
    return Result<ReserveId>::err("reserve admission denied: utilization cap exceeded");
  }
  const ReserveId id = next_reserve_id_++;
  reserves_[id] = Reserve{spec, spec.compute, engine_.now()};
  reschedule();
  return id;
}

Status<std::string> ScanCpu::update_reserve(ReserveId id, const ReserveSpec& spec) {
  if (!valid_spec(spec)) {
    return Status<std::string>::err("invalid reserve spec: need 0 < compute <= period");
  }
  const auto it = reserves_.find(id);
  if (it == reserves_.end()) return Status<std::string>::err("unknown reserve");
  Reserve& r = it->second;
  if (r.spec == spec) return {};
  // Settle the running slice and due replenishments under the old spec.
  reschedule();
  if (!boundary_fits(r.period_start, spec.period)) {
    return Status<std::string>::err(kBoundaryOverflow);
  }
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
  reschedule();
  return {};
}

void ScanCpu::destroy_reserve(ReserveId id) {
  if (reserves_.erase(id) == 0) return;
  reschedule();
}

Duration ScanCpu::reserve_budget(ReserveId id) const {
  const auto it = reserves_.find(id);
  if (it == reserves_.end()) return Duration::zero();
  const Reserve& r = it->second;
  const TimePoint now = engine_.now();
  Duration budget = r.budget;
  TimePoint period_start = r.period_start;
  if (now >= period_start + r.spec.period) {
    const std::int64_t k = (now - period_start).ns() / r.spec.period.ns();
    period_start = period_start + r.spec.period * k;
    budget = r.spec.compute;
  }
  if (running_ && running_boosted_ && jobs_.at(*running_).reserve == id) {
    const TimePoint from = std::max(run_start_, period_start);
    budget = std::max(Duration::zero(), budget - (now - from));
  }
  return budget;
}

double ScanCpu::reserved_utilization() const {
  double u = 0.0;
  for (const auto& [id, r] : reserves_) u += r.spec.utilization();
  return u;
}

// --- introspection ----------------------------------------------------------

std::size_t ScanCpu::runnable_count() const {
  std::size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (effective_priority(job)) ++n;
  }
  return n;
}

Duration ScanCpu::busy_time() const {
  std::int64_t ns = busy_ns_;
  if (running_) ns += (engine_.now() - run_start_).ns();
  return Duration{ns};
}

std::optional<Priority> ScanCpu::effective_priority(const Job& job) const {
  if (job.reserve != kNoReserve) {
    const auto it = reserves_.find(job.reserve);
    if (it != reserves_.end()) {
      if (it->second.budget > Duration::zero()) return kBoostBand + job.base_priority;
      if (it->second.spec.hard) return std::nullopt;
    }
  }
  return job.base_priority;
}

bool ScanCpu::is_boosted(const Job& job) const {
  if (job.reserve == kNoReserve) return false;
  const auto it = reserves_.find(job.reserve);
  return it != reserves_.end() && it->second.budget > Duration::zero();
}

// --- scheduling -------------------------------------------------------------

void ScanCpu::charge_running() {
  if (!running_) return;
  Job& job = jobs_.at(*running_);
  const Duration elapsed = engine_.now() - run_start_;
  assert(elapsed >= Duration::zero());
  if (elapsed == Duration::zero()) return;
  job.cycles_remaining -= std::min(
      job.cycles_remaining,
      mul_div(static_cast<std::uint64_t>(elapsed.ns()), os::kCpuHz, 1'000'000'000ULL));
  busy_ns_ += elapsed.ns();
  if (running_boosted_) {
    const auto rit = reserves_.find(job.reserve);
    if (rit != reserves_.end()) {
      rit->second.budget = std::max(Duration::zero(), rit->second.budget - elapsed);
    }
  }
  if (trace_enabled_) {
    trace_.push_back(os::Cpu::RunSlice{*running_,
                                       effective_priority(job).value_or(job.base_priority),
                                       running_boosted_ ? job.reserve : kNoReserve,
                                       running_boosted_, run_start_, engine_.now()});
  }
  run_start_ = engine_.now();
}

void ScanCpu::clear_pending_events() {
  for (sim::EventId* ev : {&completion_event_, &limit_event_, &reserve_wake_event_}) {
    if (ev->valid()) engine_.cancel(*ev);
    *ev = sim::EventId{};
  }
}

void ScanCpu::roll_periods() {
  const TimePoint now = engine_.now();
  for (auto& [id, r] : reserves_) {
    if (now < r.period_start + r.spec.period) continue;
    const std::int64_t k = (now - r.period_start).ns() / r.spec.period.ns();
    r.period_start = r.period_start + r.spec.period * k;
    r.budget = r.spec.compute;  // unused budget does not accumulate
  }
}

void ScanCpu::arm_reserve_wake() {
  TimePoint next = TimePoint::max();
  for (const auto& [id, job] : jobs_) {
    const auto rit = reserves_.find(job.reserve);
    if (rit == reserves_.end()) continue;
    next = std::min(next, rit->second.period_start + rit->second.spec.period);
  }
  if (next == TimePoint::max()) return;
  reserve_wake_event_ = engine_.at(next, [this] {
    reserve_wake_event_ = sim::EventId{};
    reschedule();
  });
}

void ScanCpu::reschedule() {
  charge_running();
  clear_pending_events();
  running_.reset();
  running_boosted_ = false;
  roll_periods();
  arm_reserve_wake();

  // (effective priority, rank) is a strict total order: the scan's pick does
  // not depend on iteration order.
  JobId best_id = 0;
  const Job* best = nullptr;
  Priority best_prio = 0;
  for (const auto& [id, job] : jobs_) {
    const auto ep = effective_priority(job);
    if (!ep) continue;
    if (best == nullptr || *ep > best_prio ||
        (*ep == best_prio && job.queue_rank < best->queue_rank)) {
      best_id = id;
      best = &job;
      best_prio = *ep;
    }
  }
  if (best == nullptr) return;  // idle

  running_ = best_id;
  running_boosted_ = is_boosted(*best);
  run_start_ = engine_.now();

  const Duration to_completion = duration_of(best->cycles_remaining);
  Duration limit = Duration::max();
  if (running_boosted_) limit = reserves_.at(best->reserve).budget;
  if (config_.quantum < Duration::max()) {
    for (const auto& [id, job] : jobs_) {
      if (id == best_id) continue;
      const auto ep = effective_priority(job);
      if (ep && *ep == best_prio) {
        limit = std::min(limit, config_.quantum);
        break;
      }
    }
  }

  if (to_completion <= limit) {
    completion_event_ = engine_.after(to_completion, [this, best_id] { complete(best_id); });
  } else {
    limit_event_ = engine_.after(limit, [this] {
      limit_event_ = sim::EventId{};
      // Rotate the interrupted job behind its equal-priority peers.
      if (running_) {
        const auto it = jobs_.find(*running_);
        if (it != jobs_.end()) it->second.queue_rank = next_rank_++;
      }
      reschedule();
    });
  }
}

void ScanCpu::complete(JobId id) {
  completion_event_ = sim::EventId{};
  assert(running_ && *running_ == id);
  charge_running();
  clear_pending_events();
  running_.reset();
  running_boosted_ = false;
  auto on_complete = std::move(jobs_.at(id).on_complete);
  jobs_.erase(id);
  reschedule();
  if (on_complete) on_complete();
}

}  // namespace aqm::oracle
