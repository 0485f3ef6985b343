// QuO system condition objects.
//
// "System condition objects are wrapper facades that provide consistent
// interfaces to infrastructure mechanisms, services, and managers. [They]
// are used to measure and control the states of resources, mechanisms, and
// managers that are relevant to contracts."
//
// A SysCond exposes a scalar value and notifies subscribed contracts when
// it changes. Concrete kinds:
//   * ValueSysCond     — directly settable measurement or knob.
//   * RateSysCond      — windowed event rate (frames/s, bytes/s), evaluated
//                        periodically on the simulation clock.
//   * LambdaSysCond    — pull-through facade over any component getter.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace aqm::quo {

class SysCond {
 public:
  using Listener = std::function<void()>;

  virtual ~SysCond() = default;
  SysCond(const SysCond&) = delete;
  SysCond& operator=(const SysCond&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] virtual double value() const = 0;

  /// Contracts subscribe to re-evaluate when the condition changes.
  void subscribe(Listener listener) { listeners_.push_back(std::move(listener)); }

  /// Observability: gives the condition a clock to stamp update instants
  /// with. Called by Contract::observe (and RateSysCond's constructor), so
  /// any observed condition traces automatically when a recorder is
  /// attached to the engine.
  void bind_engine(const sim::Engine& engine) { clock_ = &engine; }

 protected:
  explicit SysCond(std::string name) : name_(std::move(name)) {}

  /// Implementations call this when their value changes.
  void notify() {
    if (clock_ != nullptr) {
      if (obs::TraceRecorder* tr = clock_->tracer_for(obs::TraceCategory::Quo)) {
        if (obs_bound_ != tr->uid()) {
          obs_track_ = tr->track("quo:syscond");
          obs_bound_ = tr->uid();
        }
        tr->instant(obs::TraceCategory::Quo, name_.c_str(), obs_track_, clock_->now(),
                    tr->current(), {{"value", value()}});
      }
    }
    for (const auto& l : listeners_) l();
  }

 private:
  std::string name_;
  std::vector<Listener> listeners_;
  const sim::Engine* clock_ = nullptr;
  std::uint64_t obs_bound_ = 0;  // uid of the recorder obs_track_ belongs to
  std::uint16_t obs_track_ = 0;
};

/// A directly settable condition (measurement pushed in, or control knob).
class ValueSysCond final : public SysCond {
 public:
  explicit ValueSysCond(std::string name, double initial = 0.0)
      : SysCond(std::move(name)), value_(initial) {}

  [[nodiscard]] double value() const override { return value_; }

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

 private:
  double value_;
};

/// Pull-through facade over an arbitrary getter (no change notification of
/// its own; pair with a contract evaluated by other conditions or timers).
class LambdaSysCond final : public SysCond {
 public:
  LambdaSysCond(std::string name, std::function<double()> getter)
      : SysCond(std::move(name)), getter_(std::move(getter)) {}

  [[nodiscard]] double value() const override { return getter_(); }

 private:
  std::function<double()> getter_;
};

/// Windowed rate: record(amount) accumulates events; value() is the amount
/// per second over the trailing window. A periodic tick re-evaluates and
/// notifies so contracts see rate *drops* (not just new events).
class RateSysCond final : public SysCond {
 public:
  RateSysCond(sim::Engine& engine, std::string name, Duration window = seconds(1));

  void record(double amount = 1.0);
  [[nodiscard]] double value() const override;

  void start();
  void stop();

 private:
  void prune(TimePoint now) const;

  sim::Engine& engine_;
  Duration window_;
  mutable std::deque<std::pair<TimePoint, double>> events_;
  sim::PeriodicTimer tick_;
  double last_notified_ = -1.0;
};

}  // namespace aqm::quo
