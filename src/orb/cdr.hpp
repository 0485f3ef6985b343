// Common Data Representation (CDR) marshaling.
//
// Real byte-level encoding with CORBA CDR alignment rules: every primitive
// is aligned to its own size relative to the start of the buffer. Writers
// always emit the host-independent little-endian form and set the GIOP
// byte-order flag; readers byte-swap when the flag disagrees, so the
// encoder/decoder pair round-trips across simulated "architectures".
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "orb/exceptions.hpp"

namespace aqm::orb {

namespace detail {

inline constexpr bool kHostLittle = std::endian::native == std::endian::little;

template <typename T>
inline T byteswap(T v) {
  std::uint8_t bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  for (std::size_t i = 0; i < sizeof(T) / 2; ++i) {
    std::swap(bytes[i], bytes[sizeof(T) - 1 - i]);
  }
  T out;
  std::memcpy(&out, bytes, sizeof(T));
  return out;
}

}  // namespace detail

class CdrWriter {
 public:
  CdrWriter() = default;

  /// Owning writer with pre-reserved capacity — a size hint from the
  /// caller (e.g. the previous message's size) avoids regrowth.
  explicit CdrWriter(std::size_t size_hint) { own_.reserve(size_hint); }

  /// Non-owning writer that appends to `external` (typically a pooled
  /// buffer whose capacity survives across messages). The buffer must
  /// outlive the writer; take() is not available in this mode.
  explicit CdrWriter(std::vector<std::uint8_t>& external) : buf_(&external) {}

  void write_u8(std::uint8_t v) { buf_->push_back(v); }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  void write_u16(std::uint16_t v) { write_prim(v); }
  void write_u32(std::uint32_t v) { write_prim(v); }
  void write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }
  void write_u64(std::uint64_t v) { write_prim(v); }
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_f32(float v);
  void write_f64(double v);

  /// CORBA string: u32 length including NUL, bytes, NUL.
  void write_string(std::string_view s);
  /// sequence<octet>: u32 length + raw bytes.
  void write_octets(std::span<const std::uint8_t> bytes);
  /// Raw bytes with no length prefix (for nested pre-encoded data).
  void write_raw(std::span<const std::uint8_t> bytes);

  /// Pads with zeros so the next write lands on an n-byte boundary
  /// (n must be a power of two, as CDR alignments are).
  void align(std::size_t n) {
    assert((n & (n - 1)) == 0);
    const std::size_t target = (buf_->size() + n - 1) & ~(n - 1);
    if (target != buf_->size()) buf_->resize(target);  // resize zero-fills the pad
  }

  [[nodiscard]] std::size_t size() const { return buf_->size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const { return *buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() {
    assert(buf_ == &own_ && "take() on a non-owning CdrWriter");
    return std::move(own_);
  }

  /// Patches a previously written u32 (used for GIOP message-size fixup).
  void patch_u32(std::size_t offset, std::uint32_t v);

 private:
  /// Aligned fixed-width write: the workhorse behind write_u16/u32/u64.
  /// Always emits little-endian (the writer's advertised byte order).
  template <typename T>
  void write_prim(T v) {
    align(sizeof(T));
    if constexpr (!detail::kHostLittle) v = detail::byteswap(v);
    const auto off = buf_->size();
    buf_->resize(off + sizeof(T));
    std::memcpy(buf_->data() + off, &v, sizeof(T));
  }

  /// Ensures capacity for `need` total bytes without defeating the vector's
  /// geometric growth (a bare reserve(need) would make each subsequent
  /// write reallocate again).
  void grow(std::size_t need) {
    if (need > buf_->capacity()) buf_->reserve(std::max(need, buf_->capacity() * 2));
  }

  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>* buf_ = &own_;
};

class CdrReader {
 public:
  /// `big_endian` is the GIOP byte-order flag of the producer.
  explicit CdrReader(std::span<const std::uint8_t> data, bool big_endian = false);

  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] bool read_bool() { return read_u8() != 0; }
  [[nodiscard]] std::uint16_t read_u16();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::int32_t read_i32() { return static_cast<std::int32_t>(read_u32()); }
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }
  [[nodiscard]] float read_f32();
  [[nodiscard]] double read_f64();
  [[nodiscard]] std::string read_string();
  [[nodiscard]] std::vector<std::uint8_t> read_octets();

  /// Capacity-reusing variants for decode-into-scratch callers (the
  /// steady-state receive path): same wire semantics as read_string /
  /// read_octets, but assign into `out` instead of constructing fresh.
  void read_string_into(std::string& out);
  void read_octets_into(std::vector<std::uint8_t>& out);

  void align(std::size_t n);
  void skip(std::size_t n);

  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::span<const std::uint8_t> remaining_bytes() const {
    return data_.subspan(pos_);
  }

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool swap_;
};

}  // namespace aqm::orb
