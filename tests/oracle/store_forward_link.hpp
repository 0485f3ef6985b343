// Reference model of net::Link for differential tests.
//
// A literal store-and-forward transmitter: when it is idle and the queue
// holds a packet, the packet starts serializing now; one event
// fires at the end of serialization (free the transmitter, serve the next
// packet) and one more at the end of propagation (deliver). That is about
// two engine events per packet, against net::Link's one; the packet timing
// and dequeue instants must match it exactly. Observability hooks (trace
// lanes, telemetry) are left out.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/time.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/engine.hpp"

namespace aqm::oracle {

class StoreForwardLink {
 public:
  using DeliveryFn = std::function<void(net::Packet&&)>;
  using DropFn = std::function<void(const net::Packet&)>;

  StoreForwardLink(sim::Engine& engine, net::NodeId from, net::NodeId to,
                   net::LinkConfig config, std::unique_ptr<net::Queue> queue);
  StoreForwardLink(const StoreForwardLink&) = delete;
  StoreForwardLink& operator=(const StoreForwardLink&) = delete;

  void set_delivery(DeliveryFn fn) { deliver_ = std::move(fn); }
  /// Called for queue drops.
  void set_drop_hook(DropFn fn) { on_drop_ = std::move(fn); }

  void send(net::Packet p);

  [[nodiscard]] std::uint64_t packets_transmitted() const { return tx_packets_; }

 private:
  void try_transmit();
  [[nodiscard]] Duration transmission_time(std::uint32_t bytes) const;

  sim::Engine& engine_;
  net::LinkConfig config_;
  std::unique_ptr<net::Queue> queue_;
  DeliveryFn deliver_;
  DropFn on_drop_;
  bool busy_ = false;
  std::uint64_t tx_packets_ = 0;
};

}  // namespace aqm::oracle
