#include "net/link.hpp"

#include <cassert>
#include <cmath>

#include "obs/telemetry.hpp"

namespace aqm::net {

Link::Link(sim::Engine& engine, NodeId from, NodeId to, LinkConfig config,
           std::unique_ptr<Queue> queue)
    : engine_(engine),
      from_(from),
      to_(to),
      config_(config),
      queue_(std::move(queue)) {
  assert(config_.bandwidth_bps > 0.0);
  assert(queue_ != nullptr);
  queue_->set_drop_sink([this](const Packet& p) { report_drop(net_tracer(), p); });
}

Duration Link::transmission_time(std::uint32_t bytes) const {
  const double s = static_cast<double>(bytes) * 8.0 / config_.bandwidth_bps;
  return Duration{static_cast<std::int64_t>(std::ceil(s * 1e9))};
}

obs::TraceRecorder* Link::net_tracer() {
  obs::TraceRecorder* tr = engine_.tracer_for(obs::TraceCategory::Net);
  if (tr != nullptr && trace_bound_ != tr->uid()) {
    // First use (or recorder/name changed): bind this link's lane and hand
    // the queue discipline the same lane for its internal decisions.
    if (trace_name_.empty()) {
      trace_name_ = "link:" + std::to_string(from_) + "->" + std::to_string(to_);
    }
    trace_track_ = tr->track(trace_name_);
    qlen_name_ = tr->intern("qlen " + trace_name_);
    queue_->set_tracer(tr, trace_track_);
    trace_bound_ = tr->uid();
  }
  return tr;
}

void Link::trace_qlen(obs::TraceRecorder* tr, TimePoint t) {
  tr->counter(obs::TraceCategory::Net, qlen_name_, trace_track_, t,
              static_cast<double>(queue_->packets()));
}

void Link::report_drop(obs::TraceRecorder* tr, const Packet& p) {
  if (tr != nullptr) {
    tr->instant(obs::TraceCategory::Net, "drop", trace_track_, engine_.now(), p.trace,
                {{"flow", static_cast<double>(p.flow)}});
  }
  if (on_drop_) on_drop_(p);
}

obs::TelemetryHub* Link::net_telemetry() {
  obs::TelemetryHub* th = engine_.telemetry();
  if (th != telemetry_bound_) {
    queue_->set_telemetry(th);
    telemetry_bound_ = th;
  }
  return th;
}

void Link::send(Packet p) {
  obs::TraceRecorder* tr = net_tracer();
  obs::TelemetryHub* th = net_telemetry();
  const std::uint64_t trace_id = p.trace;
  const double flow = static_cast<double>(p.flow);
  // Catch the lazy transmitter up before the new packet becomes
  // visible: a service decision pending at avail_at_ <= now must see the
  // queue as it was without this arrival, exactly as a store-and-forward
  // end-of-serialization event (firing at avail_at_) would.
  pump();
  if (auto rejected = queue_->enqueue(std::move(p), engine_.now())) {
    report_drop(tr, *rejected);
    return;
  }
  if (tr != nullptr) {
    tr->instant(obs::TraceCategory::Net, "enqueue", trace_track_, engine_.now(),
                trace_id, {{"flow", flow}});
    trace_qlen(tr, engine_.now());
  }
  if (th != nullptr) th->on_queue_depth(queue_->packets());
  // decision_pending_ false implies the transmitter is idle (any committed
  // transmission ending in the future keeps its decision pending), so the
  // arrival itself triggers a decision (the store-and-forward "kick when
  // idle").
  if (!decision_pending_) service(engine_.now());
}

/// A decision is due only at the end of a committed transmission; once a
/// decision finds the queue empty, no new one arises until the next
/// arrival (send).
void Link::pump() {
  while (decision_pending_ && avail_at_ <= engine_.now()) {
    decision_pending_ = false;
    service(avail_at_);
  }
}

/// One service decision at the exact (possibly past) instant t: commits
/// the next transmission, or finds the queue empty. t <= now() always;
/// between t and now the queue cannot have changed (every mutation path
/// pumps first), and dequeue reads no clock, so the backdated decision is
/// exactly the store-and-forward one; t only stamps the transmit instant.
void Link::service(TimePoint t) {
  if (auto next = queue_->dequeue()) start_tx(std::move(*next), t);
}

/// Commits a transmission starting at t: head leaves the queue at t, the
/// transmitter frees at t + tx, the receiver has the packet a propagation
/// delay later. Schedules the one externally visible event (delivery),
/// which doubles as the catch-up point keeping the service chain alive.
void Link::start_tx(Packet p, TimePoint t) {
  const Duration tx = transmission_time(p.size_bytes);
  busy_ns_ += tx.ns();
  ++tx_packets_;
  tx_bytes_ += p.size_bytes;
  avail_at_ = t + tx;
  decision_pending_ = true;
  if (obs::TraceRecorder* tr = net_tracer()) {
    tr->complete(obs::TraceCategory::Net, "tx", trace_track_, t, tx, p.trace,
                 {{"bytes", static_cast<double>(p.size_bytes)},
                  {"flow", static_cast<double>(p.flow)}});
    trace_qlen(tr, t);
  }
  // Delivery instants strictly follow commit order on one link (each
  // avail_at_ + propagation is >= the previous one, and the engine fires
  // ties in scheduling order), so the packet waits in the in-flight FIFO
  // and the event captures only `this`: it fits the engine's inline
  // handler buffer, where a captured Packet would cost a heap allocation.
  in_flight_.push_back(std::move(p));
  engine_.at(avail_at_ + config_.propagation, [this] {
    Packet p = in_flight_.pop_front();
    pump();
    if (obs::TraceRecorder* tr = net_tracer()) {
      tr->instant(obs::TraceCategory::Net, "deliver", trace_track_, engine_.now(),
                  p.trace, {{"flow", static_cast<double>(p.flow)}});
    }
    if (deliver_) deliver_(std::move(p));
  });
}

double Link::utilization() const {
  const std::int64_t elapsed = engine_.now().ns();
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(busy_ns_) / static_cast<double>(elapsed);
}

}  // namespace aqm::net
