// Per-layer harvest shared by the workloads. Each function reads one
// layer's public stats after the drain, checks that layer's invariants,
// folds the values into the iteration's sim_digest and records the layer's
// per-layer counts.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "bench.hpp"
#include "net/network.hpp"
#include "net/queue.hpp"
#include "orb/orb.hpp"
#include "os/cpu.hpp"

namespace perfbench {

/// Every link built between any two of `nodes`.
inline std::vector<const aqm::net::Link*> links_among(
    const aqm::net::Network& net, std::initializer_list<aqm::net::NodeId> nodes) {
  std::vector<const aqm::net::Link*> links;
  for (const aqm::net::NodeId a : nodes) {
    for (const aqm::net::NodeId b : nodes) {
      if (const aqm::net::Link* l = net.link_between(a, b)) links.push_back(l);
    }
  }
  return links;
}

/// Network totals over `links` (every link the workload built) and its
/// bottleneck egress. RSVP signaling rides flow 0 and is consumed hop by
/// hop by the agents, so conservation is checked on data packets only.
inline void record_net(IterationResult& r, const aqm::net::Network& net,
                       const std::vector<const aqm::net::Link*>& links,
                       const aqm::net::Queue& bottleneck, std::uint64_t flows) {
  const aqm::net::FlowCounters& tot = net.totals();
  const aqm::net::FlowCounters& ctl = net.flow(aqm::net::kNoFlow);
  r.check(tot.sent - ctl.sent == tot.delivered - ctl.delivered + tot.dropped - ctl.dropped,
          "net: data packets sent != delivered + dropped");
  std::uint64_t hops = 0;
  for (const aqm::net::Link* l : links) {
    const aqm::net::QueueStats& qs = l->queue().stats();
    hops += qs.dequeued;
    r.check(l->queue().empty(), "net: packets still queued after the drain");
    for (const std::uint64_t v : {qs.enqueued, qs.dequeued, qs.dropped}) r.digest.add(v);
    r.digest.add(l->bytes_transmitted());
  }
  for (const std::uint64_t v : {tot.sent, tot.delivered, tot.dropped, flows}) r.digest.add(v);
  auto& k = r.counts;
  k["net.sent"] = static_cast<double>(tot.sent);
  k["net.delivered"] = static_cast<double>(tot.delivered);
  k["net.dropped"] = static_cast<double>(tot.dropped);
  k["net.delivery_ratio"] = ratio(tot.delivered, tot.sent);
  k["net.hops"] = static_cast<double>(hops);
  k["net.flows"] = static_cast<double>(flows);
  k["net.bottleneck_enqueued"] = static_cast<double>(bottleneck.stats().enqueued);
  k["net.bottleneck_drops"] = static_cast<double>(bottleneck.stats().dropped);
}

/// Checks Σ reserved rate <= reservable share on every IntServ egress in
/// `intserv` and returns the largest reserved share of link bandwidth.
inline double check_reservable(IterationResult& r,
                               const std::vector<const aqm::net::Link*>& intserv) {
  double util_max = 0.0;
  for (const aqm::net::Link* l : intserv) {
    const auto& q = static_cast<const aqm::net::IntServQueue&>(l->queue());
    const double bw = l->config().bandwidth_bps;
    r.check(q.reserved_rate_bps() <= l->config().reservable_fraction * bw,
            "net: reserved rate exceeds the reservable share of an egress");
    util_max = std::max(util_max, q.reserved_rate_bps() / bw);
  }
  return util_max;
}

/// Client/server ORB counters. The accounting must close: every request
/// the client sent is one of its `oneways`, or a twoway attempt that ended
/// in an ok, error or timeout reply.
inline void record_orb(IterationResult& r, aqm::orb::OrbEndpoint& client,
                       const aqm::orb::OrbEndpoint& server, std::uint64_t oneways) {
  const aqm::orb::OrbStats& cs = client.stats();
  const aqm::orb::OrbStats& ss = server.stats();
  const std::uint64_t replies = cs.replies_ok + cs.replies_error + cs.timeouts;
  r.check(cs.requests_sent == oneways + replies,
          "orb: requests != oneways + ok + error + timeout replies");
  const std::uint64_t batches = client.transport().batches_sent();
  const std::uint64_t batched = client.transport().batched_messages();
  for (const std::uint64_t v :
       {cs.requests_sent, cs.replies_ok, cs.replies_error, cs.timeouts, cs.retries,
        cs.deadline_missed, ss.requests_dispatched, ss.dispatch_rejected, ss.server_vetoed,
        batches, batched}) {
    r.digest.add(v);
  }
  auto& k = r.counts;
  k["orb.requests_sent"] = static_cast<double>(cs.requests_sent);
  k["orb.dispatched"] = static_cast<double>(ss.requests_dispatched);
  k["orb.replies_ok"] = static_cast<double>(cs.replies_ok);
  k["orb.timeouts"] = static_cast<double>(cs.timeouts);
  k["orb.retries"] = static_cast<double>(cs.retries);
  k["orb.deadline_missed"] = static_cast<double>(cs.deadline_missed);
  k["orb.dispatch_rejected"] = static_cast<double>(ss.dispatch_rejected);
  k["orb.ok_ratio"] = ratio(cs.replies_ok, replies);
  k["orb.batches_sent"] = static_cast<double>(batches);
  k["orb.msgs_per_batch"] = ratio(batched, batches);
}

/// Server and client CPUs; reserved utilization must stay within the
/// admission (schedulability) bound `cap` on both.
inline void record_os(IterationResult& r, const aqm::os::Cpu& server,
                      const aqm::os::Cpu& client, double cap) {
  for (const aqm::os::Cpu* cpu : {&server, &client}) {
    r.check(cpu->reserved_utilization() <= cap,
            "os: reserved CPU utilization above the schedulability bound");
    r.digest.add_signed(cpu->busy_time().ns());
  }
  auto& k = r.counts;
  k["os.utilization"] = server.utilization();
  k["os.reserved_util"] = server.reserved_utilization();
  k["os.busy_sim_s"] = (server.busy_time() + client.busy_time()).seconds();
}

}  // namespace perfbench
