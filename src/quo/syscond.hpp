// QuO system condition objects.
//
// "System condition objects are wrapper facades that provide consistent
// interfaces to infrastructure mechanisms, services, and managers. [They]
// are used to measure and control the states of resources, mechanisms, and
// managers that are relevant to contracts."
//
// A ValueSysCond holds a scalar that its owner sets: a measurement pushed
// in (a StatusCollector condition fed by status reports, a delivery ratio)
// or a control knob. It notifies subscribed contracts when it is set.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace aqm::quo {

class ValueSysCond {
 public:
  using Listener = std::function<void()>;

  explicit ValueSysCond(std::string name, double initial = 0.0)
      : name_(std::move(name)), value_(initial) {}
  ValueSysCond(const ValueSysCond&) = delete;
  ValueSysCond& operator=(const ValueSysCond&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double value() const { return value_; }

  /// Sets the value; notifies only when it changed.
  void set(double v) {
    if (v == value_) return;
    value_ = v;
    notify();
  }

  /// Sets the value and notifies unconditionally. For conditions fed by
  /// periodic measurements, where "same value again" is itself a signal
  /// (e.g. a delivery counter that stalled during total loss).
  void update(double v) {
    value_ = v;
    notify();
  }

  /// Contracts subscribe to re-evaluate when the condition changes.
  void subscribe(Listener listener) { listeners_.push_back(std::move(listener)); }

  /// Observability: gives the condition a clock to stamp update instants
  /// with. Called by Contract::observe, so any observed condition traces
  /// automatically when a recorder is attached to the engine.
  void bind_engine(const sim::Engine& engine) { clock_ = &engine; }

 private:
  void notify() {
    if (clock_ != nullptr) {
      if (obs::TraceRecorder* tr = clock_->tracer_for(obs::TraceCategory::Quo)) {
        if (obs_bound_ != tr->uid()) {
          obs_track_ = tr->track("quo:syscond");
          obs_bound_ = tr->uid();
        }
        tr->instant(obs::TraceCategory::Quo, name_.c_str(), obs_track_, clock_->now(),
                    tr->current(), {{"value", value_}});
      }
    }
    for (const auto& l : listeners_) l();
  }

  std::string name_;
  double value_;
  std::vector<Listener> listeners_;
  const sim::Engine* clock_ = nullptr;
  std::uint64_t obs_bound_ = 0;  // uid of the recorder obs_track_ belongs to
  std::uint16_t obs_track_ = 0;
};

}  // namespace aqm::quo
