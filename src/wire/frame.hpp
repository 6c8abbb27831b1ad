// The broker network's wire frame — the byte envelope every protocol
// message travels in under CodecTransport.
//
//   +--------+---------+------+-----+--------+-----------+------------+
//   | magic  | version | kind | pad | len    | crc32c    | reserved   |
//   | 8      | u16     | u8   | u8  | u32    | u32       | zeros → 64 |
//   +--------+---------+------+-----+--------+-----------+------------+
//   | payload (len bytes)                                             |
//   +-----------------------------------------------------------------+
//
// The header is padded to exactly 64 bytes = core::kEnvelopeBytes, the
// envelope Msg::wire_size() charges on top of the counted payload (and that
// every paper byte-accounting claim is stated in). The CRC
// covers magic..len, the reserved padding and the payload — every byte of
// the frame except the CRC field itself — so any single flipped byte or
// torn tail is detected.
//
// Parsing never throws: a torn or corrupt frame yields FrameParse with
// consumed == 0 and a reason + expected/found CRC, mirroring the WAL's
// storage/segment.* contract (DESIGN.md §4.4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gryphon::wire {

/// "GRYMSG01" little-endian; bump the trailing digits with the version.
constexpr std::uint64_t kFrameMagic = 0x313047534D595247ull;
constexpr std::uint16_t kWireVersion = 1;

/// Total header size, reserved padding included.
constexpr std::size_t kFrameHeaderBytes = 64;

/// Upper bound on a single frame payload; anything larger in a length
/// prefix is treated as corruption, bounding how far a parse can be fooled.
constexpr std::size_t kMaxFramePayloadBytes = 64u << 20;

/// Appends a complete frame (header + payload) for message kind `kind`.
void append_frame(std::vector<std::byte>& out, std::uint8_t kind,
                  std::span<const std::byte> payload);

/// Split-phase framing for pooled/arena encoders: begin_frame() appends a
/// zeroed header and returns its offset; the caller then appends the payload
/// bytes directly behind it (no staging buffer, no copy) and finish_frame()
/// patches kind, length and CRC over everything appended since. Equivalent
/// byte-for-byte to append_frame().
[[nodiscard]] std::size_t begin_frame(std::vector<std::byte>& out);
void finish_frame(std::vector<std::byte>& out, std::size_t base, std::uint8_t kind);

struct FrameParse {
  std::size_t consumed = 0;  // 0 => torn/corrupt
  std::uint8_t kind = 0;
  std::span<const std::byte> payload;
  std::uint32_t crc_expected = 0;
  std::uint32_t crc_found = 0;
  const char* reason = nullptr;  // set when consumed == 0
};

/// Parses one frame from the start of `bytes`. A kind byte above
/// core::kMaxMsgKind is a reject ("unknown message kind").
[[nodiscard]] FrameParse parse_frame(std::span<const std::byte> bytes);

}  // namespace gryphon::wire
