// Reusable rate-adaptation qosket for video streams [Qosket:02].
//
// Packages the QuO behavior the paper's experiments rely on: watch the
// measured delivery ratio of a stream, and when the network cannot sustain
// the current frame rate, filter "down to 10 fps or 2 fps, whichever the
// network would support"; probe back up after sustained clean delivery
// with exponential backoff.
//
// The qosket owns a contract over a delivery-ratio system condition; the
// embedding application feeds ratio measurements (typically from a
// quo::StatusCollector condition) and wires the FrameFilter in front of
// its stream binding.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "media/frame_filter.hpp"
#include "quo/contract.hpp"
#include "quo/syscond.hpp"
#include "sim/engine.hpp"

namespace aqm::av {

/// The contract's thresholds and report counts are fixed
/// (rate_adaptation.cpp); the rates are the configurable part.
struct RateAdaptationConfig {
  /// Network rate granted to the stream (0 = none) and the rate the
  /// reduced (I+P) stream needs: decides whether a downgrade from full
  /// rate lands on 10 fps or all the way at 2 fps.
  double reserved_rate_bps = 0.0;
  double ip_stream_rate_bps = 0.0;
};

class RateAdaptationQosket {
 public:
  RateAdaptationQosket(sim::Engine& engine, media::FrameFilter& filter,
                       RateAdaptationConfig config);
  RateAdaptationQosket(const RateAdaptationQosket&) = delete;
  RateAdaptationQosket& operator=(const RateAdaptationQosket&) = delete;

  /// Feed one delivery-ratio measurement (delivered / transmitted over the
  /// report window).
  void report(double ratio);

  /// Convenience: subscribe to a condition carrying the ratio (e.g. a
  /// StatusCollector condition). Every change feeds report().
  void observe(quo::ValueSysCond& ratio_condition);

  [[nodiscard]] media::FilterLevel level() const { return filter_.level(); }
  [[nodiscard]] const quo::Contract& contract() const { return contract_; }
  [[nodiscard]] const std::vector<std::pair<TimePoint, std::string>>& history() const {
    return history_;
  }

 private:
  void set_level(media::FilterLevel level);
  void downgrade();
  void upgrade();
  [[nodiscard]] media::FilterLevel reduced_level() const {
    return config_.reserved_rate_bps >= config_.ip_stream_rate_bps
               ? media::FilterLevel::IpOnly
               : media::FilterLevel::IOnly;
  }

  sim::Engine& engine_;
  media::FrameFilter& filter_;
  RateAdaptationConfig config_;
  quo::ValueSysCond ratio_;
  quo::Contract contract_;
  std::vector<std::pair<TimePoint, std::string>> history_;
  int clean_reports_ = 0;
  int reports_in_loss_ = 0;
  int grace_reports_ = 0;
  int upgrade_hold_reports_;
};

}  // namespace aqm::av
