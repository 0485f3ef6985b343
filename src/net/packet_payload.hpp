// Small-buffer-optimized replacement for std::any in the packet hot path.
//
// Every simulated packet carries a typed payload (a GIOP fragment, an RSVP
// message). libstdc++'s std::any only stores trivially-copyable payloads up
// to one pointer inline, so each packet paid a heap allocation. All payload
// types in this codebase fit in 48 bytes; PacketPayload keeps them inline
// (a larger type does not compile) so forwarding a packet through routers
// and queues never allocates.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace aqm::net {

class PacketPayload {
 public:
  static constexpr std::size_t kInlineSize = 48;

  PacketPayload() = default;

  template <typename T,
            typename D = std::decay_t<T>,
            typename = std::enable_if_t<!std::is_same_v<D, PacketPayload> &&
                                        std::is_copy_constructible_v<D>>>
  PacketPayload(T&& v) {  // NOLINT(google-explicit-constructor): mirrors std::any
    construct<T>(std::forward<T>(v));
  }

  PacketPayload(PacketPayload&& other) noexcept { steal(other); }
  PacketPayload& operator=(PacketPayload&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  PacketPayload(const PacketPayload& other) {
    if (other.ops_ != nullptr) {
      other.ops_->copy(other.buf_, buf_);
      ops_ = other.ops_;
    }
  }
  PacketPayload& operator=(const PacketPayload& other) {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        other.ops_->copy(other.buf_, buf_);
        ops_ = other.ops_;
      }
    }
    return *this;
  }
  ~PacketPayload() { reset(); }

  [[nodiscard]] bool has_value() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Typed access; nullptr when empty or the stored type differs.
  template <typename T>
  [[nodiscard]] T* get() {
    if (ops_ == nullptr || ops_->tag != &type_tag<std::decay_t<T>>) return nullptr;
    return ptr<std::decay_t<T>>();
  }
  template <typename T>
  [[nodiscard]] const T* get() const {
    return const_cast<PacketPayload*>(this)->get<T>();
  }

  /// Moves the stored value out and empties the payload. The stored type
  /// must match (asserted) — use get() first when unsure.
  template <typename T>
  [[nodiscard]] T take() {
    T* p = get<T>();
    assert(p != nullptr && "PacketPayload::take type mismatch");
    T out = std::move(*p);
    reset();
    return out;
  }

 private:
  struct Ops {
    void (*copy)(const void* src, void* dst);
    void (*relocate)(void* src, void* dst) noexcept;  // move into dst, destroy src
    void (*destroy)(void*) noexcept;
    const void* tag;
  };

  // One address per payload type, used as a cheap type id (no RTTI).
  template <typename D>
  static constexpr char type_tag = 0;

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  [[nodiscard]] D* ptr() {
    return std::launder(reinterpret_cast<D*>(buf_));
  }

  template <typename T, typename D = std::decay_t<T>>
  void construct(T&& v) {
    static_assert(fits_inline<D>(),
                  "PacketPayload types must fit inline: at most kInlineSize bytes, "
                  "max_align_t alignment and a nothrow move constructor");
    ::new (static_cast<void*>(buf_)) D(std::forward<T>(v));
    ops_ = &kInlineOps<D>;
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      [](const void* src, void* dst) {
        ::new (dst) D(*std::launder(reinterpret_cast<const D*>(src)));
      },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* src, void* dst) noexcept {
              D* s = std::launder(reinterpret_cast<D*>(src));
              ::new (dst) D(std::move(*s));
              s->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* p) noexcept { std::launder(reinterpret_cast<D*>(p))->~D(); },
      &type_tag<D>,
  };

  void steal(PacketPayload& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(other.buf_, buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineSize);
      }
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) std::byte buf_[kInlineSize];
};

}  // namespace aqm::net
