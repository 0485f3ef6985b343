// RT-CORBA priority mapping: translates platform-independent CORBA
// priorities [0, 32767] to native OS priorities and back by scaling them
// linearly onto a native range. Each ORB holds one mapping by value, and
// installing a custom mapping (the job of TAO's priority-mapping manager,
// which the paper's DiffServ work extends) is plain assignment to
// OrbEndpoint::priority_mappings(); the ORB's thread pools read the
// installed mapping from then on.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "os/priority.hpp"
#include "orb/types.hpp"

namespace aqm::orb::rt {

/// Linear scaling of [0, 32767] onto [native_min, native_max]; the default
/// range is [kMinPriority, kMaxPriority].
class PriorityMapping {
 public:
  constexpr PriorityMapping(os::Priority native_min = os::kMinPriority,
                            os::Priority native_max = os::kMaxPriority)
      : min_(native_min), max_(native_max) {
    assert(native_min < native_max);
  }

  [[nodiscard]] constexpr os::Priority to_native(CorbaPriority corba) const {
    corba = std::clamp(corba, kMinCorbaPriority, kMaxCorbaPriority);
    const auto span = static_cast<std::int64_t>(max_ - min_);
    return min_ + static_cast<os::Priority>(static_cast<std::int64_t>(corba) * span /
                                            kMaxCorbaPriority);
  }

  [[nodiscard]] constexpr CorbaPriority to_corba(os::Priority native) const {
    native = std::clamp(native, min_, max_);
    const auto span = static_cast<std::int64_t>(max_ - min_);
    if (span == 0) return kMinCorbaPriority;
    return static_cast<CorbaPriority>(static_cast<std::int64_t>(native - min_) *
                                      kMaxCorbaPriority / span);
  }

 private:
  os::Priority min_;
  os::Priority max_;
};

// --- per-OS mappings (paper Figure 2) -------------------------------------------
//
// Each RTOS exposes a different native priority range, so the same CORBA
// priority lands on a different native value per host while the
// RTCorbaPriority service context carries the platform-independent value
// end to end (the paper's example: CORBA 100 -> QNX 16 / LynxOS 128 /
// Solaris 136). These mappings are confined to each OS's real-time band.

/// QNX Neutrino: priorities 1..31.
inline constexpr PriorityMapping kQnxMapping{1, 31};
/// LynxOS: priorities 0..255.
inline constexpr PriorityMapping kLynxOsMapping{0, 255};
/// Solaris RT scheduling class: global priorities 100..159.
inline constexpr PriorityMapping kSolarisRtMapping{100, 159};

}  // namespace aqm::orb::rt
