// QuO contracts.
//
// "The operating regions and service requirements of the application are
// encoded in contracts, which describe the possible states the system might
// be in, as well as which actions to perform when the state changes."
//
// A contract is an ordered list of named regions with boolean predicates
// (usually over system condition objects). eval() selects the first region
// whose predicate holds; when the active region changes, the callbacks
// registered for entering the new region fire. Contracts subscribe to
// their conditions so evaluation is automatic.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "quo/syscond.hpp"
#include "sim/engine.hpp"

namespace aqm::quo {

class Contract {
 public:
  using Predicate = std::function<bool()>;
  using EnterCallback = std::function<void()>;

  Contract(sim::Engine& engine, std::string name);
  Contract(const Contract&) = delete;
  Contract& operator=(const Contract&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Appends a region. Order matters: the first region whose predicate is
  /// true wins. A null predicate means "always true" (use for the fallback
  /// region, typically added last).
  Contract& add_region(std::string region, Predicate predicate);

  /// Fires whenever the active region becomes `region`.
  Contract& on_enter(const std::string& region, EnterCallback cb);

  /// Subscribes this contract to a condition; any change re-evaluates.
  Contract& observe(ValueSysCond& cond);

  /// Evaluates predicates and performs the region change if needed.
  /// Returns the active region after evaluation.
  const std::string& eval();

  [[nodiscard]] const std::string& current_region() const { return current_; }

  /// (time, region) at each region change, including the initial eval.
  [[nodiscard]] const std::vector<std::pair<TimePoint, std::string>>& history() const {
    return history_;
  }
  [[nodiscard]] std::size_t transition_count() const {
    return history_.empty() ? 0 : history_.size() - 1;
  }

 private:
  struct Region {
    std::string name;
    Predicate predicate;
  };

  sim::Engine& engine_;
  std::string name_;
  std::vector<Region> regions_;
  std::string current_;
  std::multimap<std::string, EnterCallback> enter_callbacks_;
  std::vector<std::pair<TimePoint, std::string>> history_;
  bool evaluating_ = false;
  std::uint64_t obs_bound_ = 0;  // uid of the recorder obs_track_ belongs to
  std::uint16_t obs_track_ = 0;
  std::uint64_t region_span_ = 0;  // open async span for the active region
};

}  // namespace aqm::quo
