#include "wire/frame.hpp"

#include <cstring>

#include "core/messages.hpp"
#include "storage/crc32c.hpp"

namespace gryphon::wire {
namespace {

/// Tolerant little-endian reads: the parser must classify arbitrary bytes,
/// so it never throws (unlike BufReader).
template <typename T>
T read_le(std::span<const std::byte> bytes, std::size_t at) {
  T v;
  std::memcpy(&v, bytes.data() + at, sizeof(T));
  return v;
}

// Header field offsets.
constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kKindAt = 10;
constexpr std::size_t kPadAt = 11;
constexpr std::size_t kLenAt = 12;
constexpr std::size_t kCrcAt = 16;
constexpr std::size_t kReservedAt = 20;

}  // namespace

std::size_t begin_frame(std::vector<std::byte>& out) {
  const std::size_t base = out.size();
  out.resize(base + kFrameHeaderBytes, std::byte{0});
  return base;
}

void finish_frame(std::vector<std::byte>& out, std::size_t base, std::uint8_t kind) {
  std::byte* h = out.data() + base;
  std::memcpy(h, &kFrameMagic, sizeof kFrameMagic);
  std::memcpy(h + kVersionAt, &kWireVersion, sizeof kWireVersion);
  h[kKindAt] = static_cast<std::byte>(kind);
  const auto len = static_cast<std::uint32_t>(out.size() - base - kFrameHeaderBytes);
  std::memcpy(h + kLenAt, &len, sizeof len);

  // CRC over every frame byte except the CRC field itself.
  std::uint32_t crc = storage::crc32c({h, kCrcAt});
  crc = storage::crc32c({h + kReservedAt, kFrameHeaderBytes - kReservedAt + len}, crc);
  std::memcpy(h + kCrcAt, &crc, sizeof crc);
}

void append_frame(std::vector<std::byte>& out, std::uint8_t kind,
                  std::span<const std::byte> payload) {
  const std::size_t base = begin_frame(out);
  out.insert(out.end(), payload.begin(), payload.end());
  finish_frame(out, base, kind);
}

FrameParse parse_frame(std::span<const std::byte> bytes) {
  FrameParse r;
  if (bytes.size() < kFrameHeaderBytes) {
    r.reason = "torn frame header";
    return r;
  }
  if (read_le<std::uint64_t>(bytes, 0) != kFrameMagic) {
    r.reason = "bad frame magic";
    return r;
  }
  if (read_le<std::uint16_t>(bytes, kVersionAt) != kWireVersion) {
    r.reason = "unsupported wire version";
    return r;
  }
  const auto len = read_le<std::uint32_t>(bytes, kLenAt);
  r.crc_found = read_le<std::uint32_t>(bytes, kCrcAt);
  if (len > kMaxFramePayloadBytes) {
    r.reason = "implausible frame length";
    return r;
  }
  if (bytes.size() < kFrameHeaderBytes + len) {
    r.reason = "torn frame payload";
    return r;
  }
  r.crc_expected = storage::crc32c(bytes.first(kCrcAt));
  r.crc_expected = storage::crc32c(
      bytes.subspan(kReservedAt, kFrameHeaderBytes - kReservedAt + len),
      r.crc_expected);
  if (r.crc_expected != r.crc_found) {
    r.reason = "bad frame crc";
    return r;
  }
  // CRC has passed: anything wrong past this point is encoder version skew,
  // not wire damage — still rejected, never trusted.
  const auto kind = static_cast<std::uint8_t>(bytes[kKindAt]);
  if (kind > core::kMaxMsgKind) {
    r.reason = "unknown message kind";
    return r;
  }
  // Canonical frames zero-fill the pad byte and the whole reserved region;
  // anything else would survive decode but fail the canonical re-encode.
  if (bytes[kPadAt] != std::byte{0}) {
    r.reason = "nonzero header padding";
    return r;
  }
  for (std::size_t i = kReservedAt; i < kFrameHeaderBytes; ++i) {
    if (bytes[i] != std::byte{0}) {
      r.reason = "nonzero header padding";
      return r;
    }
  }
  r.kind = kind;
  r.payload = bytes.subspan(kFrameHeaderBytes, len);
  r.consumed = kFrameHeaderBytes + len;
  return r;
}

}  // namespace gryphon::wire
