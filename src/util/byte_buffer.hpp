// Binary serialization primitives.
//
// Persistent records (log-volume records, database rows, checkpoint tokens)
// are serialized to byte vectors via BufWriter and parsed back via BufReader.
// Encoding is little-endian fixed-width — simple, portable, and the byte
// counts are exactly what the storage cost model charges for, which matters
// because the paper's PFS claim ("8 + 16·n bytes per record, 25x less data")
// is a byte-accounting claim.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace gryphon {

/// Appends fixed-width little-endian values to a growable byte vector.
class BufWriter {
 public:
  BufWriter() = default;

  /// Adopts `reuse` as the output buffer (cleared, capacity retained) so hot
  /// encoders can run off a recycled allocation.
  explicit BufWriter(std::vector<std::byte> reuse) : buf_(std::move(reuse)) {
    buf_.clear();
  }

  /// Adopts `buf` *without* clearing it, so an encoder can append behind
  /// bytes already written (e.g. a frame header hole in a shared arena).
  [[nodiscard]] static BufWriter appending(std::vector<std::byte> buf) {
    BufWriter w;
    w.buf_ = std::move(buf);
    return w;
  }

  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }

  /// Appends `n` zero bytes in one resize (padding regions; the per-byte
  /// push_back loop this replaces dominated encode cost for padded payloads).
  void put_zeros(std::size_t n) { buf_.resize(buf_.size() + n, std::byte{0}); }

  void put_u16(std::uint16_t v) { put_raw(&v, sizeof v); }
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof v); }
  void put_i64(std::int64_t v) { put_raw(&v, sizeof v); }

  void put_bytes(std::span<const std::byte> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Length-prefixed (u32) string.
  void put_string(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::byte>& bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  void put_raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::byte> buf_;
};

/// BufWriter's put_* API over no buffer: it only adds up lengths. An encoder
/// templated on its writer, run over a ByteCounter, yields the exact size of
/// what it writes into a BufWriter — one description of a layout, no size
/// formula kept beside it.
class ByteCounter {
 public:
  void put_u8(std::uint8_t) { n_ += 1; }
  void put_zeros(std::size_t n) { n_ += n; }
  void put_u16(std::uint16_t) { n_ += 2; }
  void put_u32(std::uint32_t) { n_ += 4; }
  void put_u64(std::uint64_t) { n_ += 8; }
  void put_i64(std::int64_t) { n_ += 8; }
  void put_bytes(std::span<const std::byte> bytes) { n_ += bytes.size(); }
  void put_string(std::string_view s) { n_ += 4 + s.size(); }

  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Reads fixed-width little-endian values from a byte span. Throws
/// InvariantViolation on truncated input (corrupt record).
class BufReader {
 public:
  explicit BufReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t get_u8() { return static_cast<std::uint8_t>(take(1)[0]); }

  std::uint16_t get_u16() { return get_raw<std::uint16_t>(); }
  std::uint32_t get_u32() { return get_raw<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_raw<std::uint64_t>(); }
  std::int64_t get_i64() { return get_raw<std::int64_t>(); }

  std::string get_string() {
    const auto n = get_u32();
    auto s = take(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  /// Zero-copy variant: a view into the underlying buffer. Only valid while
  /// the buffer the reader was constructed over stays alive and unmoved —
  /// pair with a shared ownership handle (wire/codec.hpp DecodeResult).
  std::string_view get_string_view() {
    const auto n = get_u32();
    auto s = take(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  std::span<const std::byte> get_bytes(std::size_t n) { return take(n); }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

 private:
  template <typename T>
  T get_raw() {
    auto s = take(sizeof(T));
    T v;
    std::memcpy(&v, s.data(), sizeof(T));
    return v;
  }

  std::span<const std::byte> take(std::size_t n) {
    GRYPHON_CHECK_MSG(remaining() >= n, "truncated record: need " << n << " have "
                                                                  << remaining());
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace gryphon
