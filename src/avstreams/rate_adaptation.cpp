#include "avstreams/rate_adaptation.hpp"

#include <algorithm>

namespace aqm::av {
namespace {

/// Delivery ratio below which the current level counts as failing.
constexpr double kLossThreshold = 0.9;
/// Consecutive loss-y reports (after the first downgrade) before stepping
/// down another level.
constexpr int kPersistentLossReports = 4;
/// Reports to ignore right after a level change (in-flight frames from the
/// previous level would otherwise read as loss).
constexpr int kGraceReports = 4;
/// Clean reports required before the first upgrade probe; doubles after
/// every probe (exponential backoff), capped below.
constexpr int kInitialUpgradeHoldReports = 16;
constexpr int kMaxUpgradeHoldReports = 128;

}  // namespace

RateAdaptationQosket::RateAdaptationQosket(sim::Engine& engine,
                                           media::FrameFilter& filter,
                                           RateAdaptationConfig config)
    : engine_(engine),
      filter_(filter),
      config_(config),
      ratio_("delivery-ratio", 1.0),
      contract_(engine, "video-rate-adaptation"),
      upgrade_hold_reports_(kInitialUpgradeHoldReports) {
  contract_
      .add_region("ok", [this] { return ratio_.value() >= kLossThreshold; })
      .add_region("loss", nullptr)
      .observe(ratio_);
  contract_.on_enter("loss", [this] { downgrade(); });
  contract_.eval();
}

void RateAdaptationQosket::observe(quo::ValueSysCond& ratio_condition) {
  ratio_condition.subscribe([this, &ratio_condition] { report(ratio_condition.value()); });
}

void RateAdaptationQosket::report(double ratio) {
  if (grace_reports_ > 0) {
    --grace_reports_;
    return;
  }
  const std::string before = contract_.current_region();
  ratio_.set(ratio);  // may transition the contract and trigger a downgrade
  if (contract_.current_region() == "loss") {
    if (before == "loss" && ++reports_in_loss_ >= kPersistentLossReports) {
      downgrade();
      reports_in_loss_ = 0;
    }
    clean_reports_ = 0;
    return;
  }
  reports_in_loss_ = 0;
  ++clean_reports_;
  if (filter_.level() != media::FilterLevel::Full &&
      clean_reports_ >= upgrade_hold_reports_) {
    upgrade();
    clean_reports_ = 0;
  }
}

void RateAdaptationQosket::set_level(media::FilterLevel level) {
  if (filter_.level() == level) return;
  filter_.set_level(level);
  history_.emplace_back(engine_.now(), media::to_string(level));
  grace_reports_ = kGraceReports;
}

void RateAdaptationQosket::downgrade() {
  switch (filter_.level()) {
    case media::FilterLevel::Full:
      set_level(reduced_level());
      break;
    case media::FilterLevel::IpOnly:
      set_level(media::FilterLevel::IOnly);
      break;
    case media::FilterLevel::IOnly:
      break;  // floor
  }
}

void RateAdaptationQosket::upgrade() {
  switch (filter_.level()) {
    case media::FilterLevel::IOnly:
      set_level(reduced_level() == media::FilterLevel::IOnly ? media::FilterLevel::Full
                                                             : media::FilterLevel::IpOnly);
      break;
    case media::FilterLevel::IpOnly:
      set_level(media::FilterLevel::Full);
      break;
    case media::FilterLevel::Full:
      break;
  }
  upgrade_hold_reports_ = std::min(upgrade_hold_reports_ * 2, kMaxUpgradeHoldReports);
}

}  // namespace aqm::av
