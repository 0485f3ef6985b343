#include "quo/syscond.hpp"

namespace aqm::quo {

RateSysCond::RateSysCond(sim::Engine& engine, std::string name, Duration window)
    : SysCond(std::move(name)),
      engine_(engine),
      window_(window),
      tick_(engine, window / 4 > Duration::zero() ? window / 4 : milliseconds(250), [this] {
        const double v = value();
        if (v != last_notified_) {
          last_notified_ = v;
          notify();
        }
      }) {
  bind_engine(engine);
}

void RateSysCond::prune(TimePoint now) const {
  while (!events_.empty() && events_.front().first + window_ < now) events_.pop_front();
}

void RateSysCond::record(double amount) {
  const TimePoint now = engine_.now();
  prune(now);
  events_.emplace_back(now, amount);
  const double v = value();
  if (v != last_notified_) {
    last_notified_ = v;
    notify();
  }
}

double RateSysCond::value() const {
  prune(engine_.now());
  double sum = 0.0;
  for (const auto& [t, amount] : events_) sum += amount;
  return sum / window_.seconds();
}

void RateSysCond::start() { tick_.start(); }

void RateSysCond::stop() { tick_.stop(); }

}  // namespace aqm::quo
