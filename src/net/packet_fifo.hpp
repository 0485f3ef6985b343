// Packet FIFOs backed by one recycled chunk arena per Network (DESIGN.md
// §10).
//
// Every packet FIFO of the forwarding path — the DropTail, DiffServ and
// RED class queues, IntServ's best-effort and control sub-queues and a
// link's in-flight FIFO — stores its packets in fixed-size chunks drawn
// from a PacketChunkPool. A FIFO holds a chunk only while it has packets
// in it: a chunk goes back to the pool as soon as its last packet leaves,
// and the pool hands it to whichever FIFO of the network grows next. So
// the arena grows on demand to the peak number of packets queued across
// the whole network at once (plus at most one partly filled chunk per
// busy FIFO) and never beyond it, while the steady state allocates
// nothing. Per-queue rings would instead keep every queue's burst
// capacity for ever, which is what a network of many bursty host egresses
// cannot afford.
//
// Network::add_link hands its pool to the link's queue and in-flight
// FIFO; a queue or link that is never added to a network uses the private
// pool its Queue base owns.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "net/packet.hpp"

namespace aqm::net {

class PacketChunkPool {
 public:
  /// Packets per chunk: 2 KiB of packets, so a busy FIFO wastes at most
  /// one partly filled chunk.
  static constexpr std::size_t kChunkPackets = 16;

  PacketChunkPool() = default;
  PacketChunkPool(const PacketChunkPool&) = delete;
  PacketChunkPool& operator=(const PacketChunkPool&) = delete;
  ~PacketChunkPool() {
    assert(in_use_ == 0 && "a PacketFifo outlived its pool");
    while (free_ != nullptr) delete std::exchange(free_, free_->next);
  }

  /// Chunks allocated so far (never shrinks).
  [[nodiscard]] std::size_t chunks() const { return chunks_; }
  /// Packet capacity of the allocated chunks.
  [[nodiscard]] std::size_t capacity_packets() const { return chunks_ * kChunkPackets; }
  /// Chunks currently holding packets.
  [[nodiscard]] std::size_t chunks_in_use() const { return in_use_; }
  /// Packets currently stored across every FIFO of the pool, and the most
  /// ever stored at once.
  [[nodiscard]] std::size_t packets() const { return packets_; }
  [[nodiscard]] std::size_t peak_packets() const { return peak_packets_; }

 private:
  friend class PacketFifo;

  struct Chunk {
    Chunk* next = nullptr;
    alignas(Packet) unsigned char storage[kChunkPackets * sizeof(Packet)];
    [[nodiscard]] Packet* at(std::size_t i) {
      return std::launder(reinterpret_cast<Packet*>(storage) + i);
    }
  };

  Chunk* acquire() {
    ++in_use_;
    if (free_ == nullptr) {
      ++chunks_;
      return new Chunk;
    }
    return std::exchange(free_, free_->next);
  }
  void release(Chunk* c) {
    --in_use_;
    c->next = free_;
    free_ = c;
  }
  void note_push() {
    if (++packets_ > peak_packets_) peak_packets_ = packets_;
  }
  void note_pop() { --packets_; }

  Chunk* free_ = nullptr;
  std::size_t chunks_ = 0;
  std::size_t in_use_ = 0;
  std::size_t packets_ = 0;
  std::size_t peak_packets_ = 0;
};

/// FIFO of packets in pooled chunks. Bound to its pool before first use
/// (bind()); a bound FIFO can move to another pool, packets included.
class PacketFifo {
 public:
  PacketFifo() = default;
  explicit PacketFifo(PacketChunkPool& pool) : pool_(&pool) {}
  PacketFifo(const PacketFifo&) = delete;
  PacketFifo& operator=(const PacketFifo&) = delete;
  ~PacketFifo() { clear(); }

  /// Draws chunks from `pool` from now on; queued packets move over.
  void bind(PacketChunkPool& pool) {
    if (pool_ == &pool) return;
    if (pool_ == nullptr || empty()) {
      pool_ = &pool;
      return;
    }
    PacketFifo moved(pool);
    while (!empty()) moved.push_back(pop_front());
    std::swap(head_, moved.head_);
    std::swap(tail_, moved.tail_);
    std::swap(head_pos_, moved.head_pos_);
    std::swap(tail_pos_, moved.tail_pos_);
    std::swap(size_, moved.size_);
    std::swap(pool_, moved.pool_);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] Packet& front() {
    assert(!empty());
    return *head_->at(head_pos_);
  }
  [[nodiscard]] const Packet& front() const {
    assert(!empty());
    return *head_->at(head_pos_);
  }

  void push_back(Packet&& p) {
    assert(pool_ != nullptr && "PacketFifo used before bind()");
    if (tail_ == nullptr || tail_pos_ == PacketChunkPool::kChunkPackets) {
      PacketChunkPool::Chunk* c = pool_->acquire();
      c->next = nullptr;
      if (tail_ == nullptr) {
        head_ = c;
        head_pos_ = 0;
      } else {
        tail_->next = c;
      }
      tail_ = c;
      tail_pos_ = 0;
    }
    ::new (static_cast<void*>(tail_->at(tail_pos_))) Packet(std::move(p));
    ++tail_pos_;
    ++size_;
    pool_->note_push();
  }

  Packet pop_front() {
    Packet* slot = &front();
    Packet p = std::move(*slot);
    slot->~Packet();
    ++head_pos_;
    --size_;
    pool_->note_pop();
    if (size_ == 0) {
      pool_->release(head_);
      head_ = tail_ = nullptr;
      head_pos_ = tail_pos_ = 0;
    } else if (head_pos_ == PacketChunkPool::kChunkPackets) {
      pool_->release(std::exchange(head_, head_->next));
      head_pos_ = 0;
    }
    return p;
  }

  /// Destroys every queued packet and returns the chunks.
  void clear() {
    while (!empty()) (void)pop_front();
  }

 private:
  PacketChunkPool* pool_ = nullptr;
  PacketChunkPool::Chunk* head_ = nullptr;
  PacketChunkPool::Chunk* tail_ = nullptr;
  std::size_t head_pos_ = 0;  // next packet to pop in head_
  std::size_t tail_pos_ = 0;  // next free position in tail_
  std::size_t size_ = 0;
};

}  // namespace aqm::net
