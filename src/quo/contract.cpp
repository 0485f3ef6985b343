#include "quo/contract.hpp"

#include <cassert>

#include "common/log.hpp"

namespace aqm::quo {

Contract::Contract(sim::Engine& engine, std::string name)
    : engine_(engine), name_(std::move(name)) {}

Contract& Contract::add_region(std::string region, Predicate predicate) {
  assert(!region.empty());
  regions_.push_back(Region{std::move(region), std::move(predicate)});
  return *this;
}

Contract& Contract::on_enter(const std::string& region, EnterCallback cb) {
  enter_callbacks_.emplace(region, std::move(cb));
  return *this;
}

Contract& Contract::observe(ValueSysCond& cond) {
  cond.bind_engine(engine_);
  cond.subscribe([this] { eval(); });
  return *this;
}

const std::string& Contract::eval() {
  assert(!regions_.empty() && "contract has no regions");
  // Enter callbacks may set conditions that re-trigger eval();
  // suppress re-entrancy so one outermost eval settles the region.
  if (evaluating_) return current_;
  evaluating_ = true;

  const std::string* selected = nullptr;
  for (const auto& r : regions_) {
    if (!r.predicate || r.predicate()) {
      selected = &r.name;
      break;
    }
  }
  // No region matched: stay where we are.
  if (selected == nullptr) {
    evaluating_ = false;
    return current_;
  }

  if (*selected != current_) {
    const std::string from = current_;
    current_ = *selected;
    history_.emplace_back(engine_.now(), current_);
    AQM_DEBUG() << "contract " << name_ << ": region '" << from << "' -> '" << current_
                << "' at " << engine_.now().seconds() << "s";
    if (obs::TraceRecorder* tr = engine_.tracer_for(obs::TraceCategory::Quo)) {
      if (obs_bound_ != tr->uid()) {
        obs_track_ = tr->track("quo:" + name_);
        obs_bound_ = tr->uid();
        region_span_ = 0;
      }
      const TimePoint now = engine_.now();
      // The active region renders as a nestable async span; the transition
      // itself is an instant correlated (by id) with the request/measurement
      // that caused this evaluation, closing the causal chain end to end.
      if (region_span_ != 0) {
        tr->async_end(obs::TraceCategory::Quo, tr->intern("region " + from), obs_track_,
                      now, region_span_);
      }
      region_span_ = tr->next_id();
      tr->async_begin(obs::TraceCategory::Quo, tr->intern("region " + current_),
                      obs_track_, now, region_span_);
      tr->instant(obs::TraceCategory::Quo,
                  tr->intern("transition " + from + "->" + current_), obs_track_, now,
                  tr->current());
    }
    const auto [eb, ee] = enter_callbacks_.equal_range(current_);
    for (auto it = eb; it != ee; ++it) it->second();
  }
  evaluating_ = false;
  return current_;
}

}  // namespace aqm::quo
