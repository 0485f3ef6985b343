#include "core/testbed.hpp"

#include "net/queue.hpp"

namespace aqm::core {
namespace {

constexpr double kAccessBps = 100e6;
constexpr double kBottleneckBps = 10e6;  // the paper's contended segment
constexpr Duration kPropagation = microseconds(100);
/// The reservation experiments' competing load pulse.
constexpr double kLoadRateBps = 43.8e6;

net::LinkConfig link_config(double bps) {
  net::LinkConfig cfg;
  cfg.bandwidth_bps = bps;
  cfg.propagation = kPropagation;
  return cfg;
}

}  // namespace

PriorityTestbed::PriorityTestbed(const PriorityTestbedParams& p)
    : params(p),
      network(engine),
      sender_node(network.add_node("sender")),
      router_node(network.add_node("router")),
      receiver_node(network.add_node("receiver")),
      cross_node(network.add_node("cross-traffic")),
      sender_cpu(engine, "sender-cpu", p.cpu),
      receiver_cpu(engine, "receiver-cpu", p.cpu),
      sender_orb(network, sender_node, sender_cpu),
      receiver_orb(network, receiver_node, receiver_cpu) {
  const auto access = link_config(kAccessBps);
  const auto bottleneck = link_config(kBottleneckBps);

  network.add_duplex_link(sender_node, router_node, access);
  network.add_duplex_link(cross_node, router_node, access);
  // Reverse direction (receiver -> router) is never the bottleneck.
  network.add_link(receiver_node, router_node, access);
  // The contended egress: drop-tail or DiffServ per the experiment.
  std::unique_ptr<net::Queue> egress;
  if (p.diffserv_bottleneck) {
    egress = std::make_unique<net::DiffServQueue>(p.router_queue_pkts);
  } else {
    egress = std::make_unique<net::DropTailQueue>(p.router_queue_pkts);
  }
  network.add_link(router_node, receiver_node, bottleneck, std::move(egress));

  // Bursty competing traffic: 2x the nominal rate at a 50% duty cycle
  // (exponential on/off), averaging p.cross_rate_bps. The on-phase
  // overwhelms the bottleneck, the off-phase lets the queue drain — that is
  // what makes Figure 4(b) swing "between a few milliseconds and over a
  // second" rather than pinning at the queue ceiling.
  net::TrafficGenerator::Config cross;
  cross.src = cross_node;
  cross.dst = receiver_node;
  cross.rate_bps = 2.0 * p.cross_rate_bps;
  cross.on_mean = seconds(2);
  cross.off_mean = seconds(2);
  cross.flow = kFlowCross;
  cross.poisson = true;
  cross_traffic = std::make_unique<net::TrafficGenerator>(network, cross, p.cross_seed);
}

ReservationTestbed::ReservationTestbed(const ReservationTestbedParams& p)
    : params(p),
      network(engine),
      sender_node(network.add_node("sender")),
      switch_node(network.add_node("switch")),
      receiver_node(network.add_node("receiver")),
      load_node(network.add_node("load-source")),
      sender_cpu(engine, "sender-cpu", p.cpu),
      receiver_cpu(engine, "receiver-cpu", p.cpu),
      sender_orb(network, sender_node, sender_cpu),
      receiver_orb(network, receiver_node, receiver_cpu),
      qos(network) {
  const auto access = link_config(kAccessBps);
  const auto bottleneck = link_config(kBottleneckBps);

  // Sender's own egress also carries an IntServ queue: the first hop of the
  // reserved path.
  network.add_link(sender_node, switch_node, access,
                   std::make_unique<net::IntServQueue>(net::IntServQueue::Config{}));
  network.add_link(switch_node, sender_node, access);
  network.add_duplex_link(load_node, switch_node, access);
  network.add_link(switch_node, receiver_node, bottleneck,
                   std::make_unique<net::IntServQueue>(net::IntServQueue::Config{}));
  network.add_link(receiver_node, switch_node, access);

  // RSVP agents on every hop of the data path (and the load host, harmlessly).
  qos.deploy_agents_everywhere();

  net::TrafficGenerator::Config load;
  load.src = load_node;
  load.dst = receiver_node;
  load.rate_bps = kLoadRateBps;
  load.flow = kFlowCross;
  load.poisson = true;
  load_traffic = std::make_unique<net::TrafficGenerator>(network, load, p.load_seed);
}

AtrTestbed::AtrTestbed(const AtrTestbedParams& p)
    : params(p),
      network(engine),
      client_node(network.add_node("client")),
      server_node(network.add_node("atr-server")),
      client_cpu(engine, "client-cpu"),
      server_cpu(engine, "server-cpu", p.server_cpu),
      client_orb(network, client_node, client_cpu),
      server_orb(network, server_node, server_cpu) {
  network.add_duplex_link(client_node, server_node, link_config(kAccessBps));
}

}  // namespace aqm::core
