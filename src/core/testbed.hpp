// Canonical testbeds replicating the paper's experimental setups, shared
// by benchmarks, integration tests and examples.
//
//  * PriorityTestbed (Figs. 4-6): sender host and cross-traffic host feed a
//    router over fast access links; the router's 10 Mbps egress to the
//    receiver host is the bottleneck. The router egress queue is drop-tail
//    FIFO or DiffServ strict-priority depending on the run.
//
//        sender ---100M--> router ---10M--> receiver
//        cross  ---100M-->   ^
//
//  * ReservationTestbed (Fig. 7 / Table 1): sender and a 43.8 Mbps load
//    source share a switch whose 10 Mbps egress to the receiver carries an
//    IntServ queue; RSVP agents are deployed on every node.
//
//  * AtrTestbed (Table 2): client host sends images over an uncongested
//    100 Mbps link to the ATR server host, whose CPU hosts the resource
//    kernel (reserves) and the competing load generator.
#pragma once

#include <memory>

#include "core/network_qos_manager.hpp"
#include "net/network.hpp"
#include "net/traffic_gen.hpp"
#include "orb/orb.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

namespace aqm::core {

/// Flow ids used consistently across testbeds and benches.
inline constexpr net::FlowId kFlowSender1 = 101;
inline constexpr net::FlowId kFlowSender2 = 102;
inline constexpr net::FlowId kFlowCross = 900;
inline constexpr net::FlowId kFlowVideo = 201;
inline constexpr net::FlowId kFlowImages = 301;

/// The link rates and delays are fixed (testbed.cpp): 100 Mbps access
/// links, the 10 Mbps bottleneck and 100 us per hop.
struct PriorityTestbedParams {
  std::size_t router_queue_pkts = 1000;
  /// false: plain drop-tail FIFO on the bottleneck (control / thread-prio
  /// runs); true: DiffServ-enabled router (DSCP runs).
  bool diffserv_bottleneck = false;
  double cross_rate_bps = 16e6;
  /// Per-trial seed of the cross-traffic generator; override when running
  /// seed sweeps so parallel trials draw independent streams.
  std::uint64_t cross_seed = 42;
  os::CpuConfig cpu{};
};

class PriorityTestbed {
 public:
  explicit PriorityTestbed(const PriorityTestbedParams& params);

  PriorityTestbedParams params;
  sim::Engine engine;
  net::Network network;
  net::NodeId sender_node;
  net::NodeId router_node;
  net::NodeId receiver_node;
  net::NodeId cross_node;
  os::Cpu sender_cpu;
  os::Cpu receiver_cpu;
  orb::OrbEndpoint sender_orb;
  orb::OrbEndpoint receiver_orb;
  std::unique_ptr<net::TrafficGenerator> cross_traffic;  // configured, not started
};

/// The links, their default IntServ queues and the 43.8 Mbps load pulse
/// are fixed (testbed.cpp).
struct ReservationTestbedParams {
  /// Per-trial seed of the load-pulse generator.
  std::uint64_t load_seed = 43;
  os::CpuConfig cpu{};
};

class ReservationTestbed {
 public:
  explicit ReservationTestbed(const ReservationTestbedParams& params);

  ReservationTestbedParams params;
  sim::Engine engine;
  net::Network network;
  net::NodeId sender_node;
  net::NodeId switch_node;
  net::NodeId receiver_node;
  net::NodeId load_node;
  os::Cpu sender_cpu;
  os::Cpu receiver_cpu;
  orb::OrbEndpoint sender_orb;
  orb::OrbEndpoint receiver_orb;
  NetworkQosManager qos;
  std::unique_ptr<net::TrafficGenerator> load_traffic;  // configured, not started
};

/// The client-server link (100 Mbps, 100 us) and the client CPU are fixed.
struct AtrTestbedParams {
  os::CpuConfig server_cpu{};
};

class AtrTestbed {
 public:
  explicit AtrTestbed(const AtrTestbedParams& params);

  AtrTestbedParams params;
  sim::Engine engine;
  net::Network network;
  net::NodeId client_node;
  net::NodeId server_node;
  os::Cpu client_cpu;
  os::Cpu server_cpu;
  orb::OrbEndpoint client_orb;
  orb::OrbEndpoint server_orb;
};

}  // namespace aqm::core
