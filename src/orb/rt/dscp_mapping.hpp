// RT-CORBA priority -> DiffServ codepoint mapping.
//
// This is the paper's second TAO enhancement (Section 3.2): "a mechanism to
// map RT-CORBA priorities to DiffServ network priorities. The TAO ORB
// provides a priority-mapping manager that supports installation of a
// custom mapping to override the default mapping." Here a mapping is a
// small band table held by value: each ORB holds one, and installing a
// mapping is plain assignment to OrbEndpoint::dscp_mappings().
#pragma once

#include <array>
#include <cstddef>

#include "net/dscp.hpp"
#include "orb/types.hpp"

namespace aqm::orb::rt {

/// Thresholds on the CORBA priority select codepoints of increasing
/// service class: a priority maps to the codepoint of the highest band
/// whose lower bound it reaches.
class DscpMapping {
 public:
  /// The default: one band {0 -> best effort}, so all traffic is best
  /// effort (network prioritization is opt-in, as in the paper's control
  /// runs).
  constexpr DscpMapping() = default;

  /// The banded mapping: [0,8k) BE, [8k,16k) AF11, [16k,24k) AF21,
  /// [24k,28k) AF41, [28k,32k] EF.
  [[nodiscard]] static constexpr DscpMapping banded() {
    DscpMapping m;
    m.bands_ = {{{0, net::dscp::kBestEffort},
                 {8'000, net::dscp::kAf11},
                 {16'000, net::dscp::kAf21},
                 {24'000, net::dscp::kAf41},
                 {28'000, net::dscp::kEf}}};
    m.count_ = 5;
    return m;
  }

  [[nodiscard]] constexpr net::Dscp to_dscp(CorbaPriority corba) const {
    net::Dscp dscp = net::dscp::kBestEffort;
    for (std::size_t i = 0; i < count_ && bands_[i].lowest <= corba; ++i) {
      dscp = bands_[i].dscp;
    }
    return dscp;
  }

 private:
  struct Band {
    CorbaPriority lowest;  // lowest CORBA priority of the band
    net::Dscp dscp;
  };
  std::array<Band, 5> bands_{{{0, net::dscp::kBestEffort}}};
  std::size_t count_ = 1;
};

}  // namespace aqm::orb::rt
