// Serialization of events for the PHB's persistent event log.
//
// A log record is {tick, publisher, seq, attributes, payload, padded size};
// recovery replays records to rebuild the pubend's D ladder and the
// per-publisher dedup table.
#pragma once

#include <cstdint>
#include <vector>

#include "matching/event.hpp"
#include "util/byte_buffer.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace gryphon::core {

struct LoggedEvent {
  Tick tick = kTickZero;
  PublisherId publisher;
  std::uint64_t seq = 0;
  matching::EventDataPtr event;
};

/// `reuse` (optional) is an empty buffer whose capacity is recycled — pair
/// with LogVolume::acquire_buffer() to keep steady-state logging allocation-free.
[[nodiscard]] std::vector<std::byte> encode_logged_event(
    const LoggedEvent& e, std::vector<std::byte> reuse = {});
[[nodiscard]] LoggedEvent decode_logged_event(std::span<const std::byte> bytes);

// The event-data portion of a record — attributes then payload — shared by
// the persistent log format above and the message payload codec
// (core/message_codec.hpp): one encoding of an event, on disk and on the wire.

/// W is BufWriter (the bytes) or ByteCounter (their exact count, which is
/// how a message's wire_size() prices an event). This differs from
/// EventData::encoded_size(), the cache/log *cost-model* size that omits
/// count/tag/length framing.
template <typename W>
void encode_event_data(W& w, const matching::EventData& e);

/// The last event a decoder produced and the exact bytes it came from. An
/// SHB fans one event out to every matching subscriber, so consecutive
/// frames carry the same event bytes; with a cache the decoder rebuilds the
/// event once and hands every frame the same EventData, as struct mode
/// shares one pointer. The encoding is self-delimiting, so bytes that start
/// with a complete earlier encoding decode to exactly that event.
struct EventDecodeCache {
  std::vector<std::byte> bytes;
  matching::EventDataPtr event;
};

/// `owner` (optional) enables zero-copy decode: when non-null, the decoded
/// event's payload is a view into the reader's underlying bytes, kept alive
/// by `owner` (a received frame's arena). With a null owner the payload is
/// materialized — callers whose buffer dies before the event must pass
/// null (the WAL recovery scan does). `cache` (optional) is consulted and
/// updated as described above.
[[nodiscard]] matching::EventDataPtr decode_event_data(
    BufReader& r, const std::shared_ptr<const void>& owner = nullptr,
    EventDecodeCache* cache = nullptr);

}  // namespace gryphon::core
