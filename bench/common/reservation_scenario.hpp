// Shared runner for the Figure 7 / Table 1 experiments: MPEG-1 video over
// the 10 Mbps bottleneck with a 43.8 Mbps load pulse, under all
// combinations of {no / partial / full RSVP reservation} x {QuO frame
// filtering on/off}.
//
// The QuO machinery is wired the way the paper describes it: the receiver
// reports delivery counts upstream on a marked control channel (status
// collection); sender-side system condition objects expose offered vs
// delivered rate; a contract with full/10fps/2fps regions drives a frame
// filter in front of the stream binding.
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "media/video_sink.hpp"
#include "net/rsvp.hpp"

namespace aqm::bench {

enum class ReservationLevel : std::uint8_t { None, Partial, Full };

[[nodiscard]] constexpr const char* to_string(ReservationLevel r) {
  switch (r) {
    case ReservationLevel::None: return "No Reservation";
    case ReservationLevel::Partial: return "Partial Reservation";
    case ReservationLevel::Full: return "Full Reservation";
  }
  return "?";
}

/// The rates, the schedule and the video are the paper's and fixed
/// (reservation_scenario.cpp).
struct ReservationScenarioConfig {
  ReservationLevel reservation = ReservationLevel::None;
  bool frame_filtering = false;
};

/// The trial seed every reservation-scenario driver declares to
/// core::Experiment::add.
inline constexpr std::uint64_t kReservationScenarioSeed = 43;

struct ReservationScenarioResult {
  std::uint64_t frames_sourced = 0;      // produced by the 30 fps source
  std::uint64_t frames_transmitted = 0;  // post-filter
  std::uint64_t frames_received = 0;
  std::uint64_t frames_decodable = 0;
  std::uint64_t i_frames_transmitted = 0;
  std::uint64_t i_frames_received = 0;

  // Under-load window measurements (the paper's Table 1 columns).
  std::uint64_t sent_under_load = 0;
  std::uint64_t received_under_load = 0;
  RunningStats latency_under_load_ms;
  RunningStats latency_overall_ms;

  // Per-second frames transmitted/received (the paper's Figure 7 series).
  std::vector<TimeSeries::Bucket> tx_per_second;
  std::vector<TimeSeries::Bucket> rx_per_second;

  // Contract activity (filtering runs only).
  std::vector<std::pair<TimePoint, std::string>> contract_history;

  [[nodiscard]] double delivered_percent_under_load() const {
    return sent_under_load == 0
               ? 0.0
               : 100.0 * static_cast<double>(received_under_load) /
                     static_cast<double>(sent_under_load);
  }
};

/// Runs one trial; spec.seed drives the 43.8 Mbps load generator, the
/// trial's only randomness.
ReservationScenarioResult run_reservation_scenario(const ReservationScenarioConfig& cfg,
                                                   const core::TrialSpec& spec);

}  // namespace aqm::bench
