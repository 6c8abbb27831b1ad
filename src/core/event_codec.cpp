#include "core/event_codec.hpp"

#include <cstring>

#include "util/assert.hpp"

namespace gryphon::core {

namespace {

enum class ValueTag : std::uint8_t { kInt = 0, kDouble = 1, kBool = 2, kString = 3 };

template <typename W>
void encode_value(W& w, const matching::Value& v) {
  if (v.is_string()) {
    w.put_u8(static_cast<std::uint8_t>(ValueTag::kString));
    w.put_string(v.as_string());
  } else if (v.is_bool()) {
    w.put_u8(static_cast<std::uint8_t>(ValueTag::kBool));
    w.put_u8(v.as_bool() ? 1 : 0);
  } else {
    // Both int64 and double attributes round-trip as double here; the
    // matching layer compares numerics numerically, so this is lossless for
    // protocol purposes (int64 attrs beyond 2^53 are not used by workloads).
    w.put_u8(static_cast<std::uint8_t>(ValueTag::kDouble));
    const double d = v.as_double();
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof d);
    std::memcpy(&bits, &d, sizeof bits);
    w.put_u64(bits);
  }
}

matching::Value decode_value(BufReader& r) {
  switch (static_cast<ValueTag>(r.get_u8())) {
    case ValueTag::kString:
      return matching::Value(r.get_string());
    case ValueTag::kBool:
      return matching::Value(r.get_u8() != 0);
    case ValueTag::kDouble: {
      const std::uint64_t bits = r.get_u64();
      double d;
      std::memcpy(&d, &bits, sizeof d);
      return matching::Value(d);
    }
    case ValueTag::kInt:
      return matching::Value(static_cast<std::int64_t>(r.get_u64()));
  }
  GRYPHON_CHECK_MSG(false, "corrupt value tag");
  return {};
}

}  // namespace

template <typename W>
void encode_event_data(W& w, const matching::EventData& e) {
  w.put_u32(static_cast<std::uint32_t>(e.attributes().size()));
  for (const auto& [name, value] : e.attributes()) {
    w.put_string(name);
    encode_value(w, value);
  }
  // The record carries the full application payload: payload_size() bytes
  // on disk and on the wire (workload generators pad without materializing,
  // but the byte accounting must reflect the real size).
  w.put_string(e.payload());
  const auto padded = static_cast<std::uint32_t>(e.payload_size());
  w.put_u32(padded);
  w.put_zeros(padded - e.payload().size());
}

template void encode_event_data(BufWriter&, const matching::EventData&);
template void encode_event_data(ByteCounter&, const matching::EventData&);

namespace {

matching::EventDataPtr decode_event_fields(BufReader& r,
                                           const std::shared_ptr<const void>& owner) {
  const auto n_attrs = r.get_u32();
  matching::EventData::AttributeList attrs;
  attrs.reserve(n_attrs);
  for (std::uint32_t i = 0; i < n_attrs; ++i) {
    std::string name = r.get_string();
    attrs.emplace_back(std::move(name), decode_value(r));
  }
  // Zero-copy path: the payload stays a view into the frame bytes, pinned
  // by the owner handle; only attribute names/values (small, usually SSO)
  // are materialized. An empty payload needs no pin at all.
  if (owner != nullptr) {
    const std::string_view payload = r.get_string_view();
    const auto padded = r.get_u32();
    if (padded > payload.size()) r.get_bytes(padded - payload.size());
    return std::make_shared<matching::EventData>(
        std::move(attrs), payload, padded,
        payload.empty() ? nullptr : owner);
  }
  std::string payload = r.get_string();
  const auto padded = r.get_u32();
  if (padded > payload.size()) r.get_bytes(padded - payload.size());
  return std::make_shared<matching::EventData>(std::move(attrs), std::move(payload),
                                               padded);
}

}  // namespace

matching::EventDataPtr decode_event_data(BufReader& r,
                                         const std::shared_ptr<const void>& owner,
                                         EventDecodeCache* cache) {
  if (cache == nullptr) return decode_event_fields(r, owner);
  const std::span<const std::byte> start = r.rest();
  const std::vector<std::byte>& seen = cache->bytes;
  if (cache->event != nullptr && start.size() >= seen.size() &&
      std::memcmp(start.data(), seen.data(), seen.size()) == 0) {
    r.get_bytes(seen.size());
    return cache->event;
  }
  matching::EventDataPtr event = decode_event_fields(r, owner);
  cache->bytes.assign(start.begin(), start.begin() + static_cast<std::ptrdiff_t>(
                                                         start.size() - r.remaining()));
  cache->event = event;
  return event;
}

std::vector<std::byte> encode_logged_event(const LoggedEvent& e,
                                           std::vector<std::byte> reuse) {
  GRYPHON_CHECK(e.event != nullptr);
  BufWriter w(std::move(reuse));
  w.put_i64(e.tick);
  w.put_u32(e.publisher.value());
  w.put_u64(e.seq);
  encode_event_data(w, *e.event);
  return w.take();
}

LoggedEvent decode_logged_event(std::span<const std::byte> bytes) {
  BufReader r(bytes);
  LoggedEvent e;
  e.tick = r.get_i64();
  e.publisher = PublisherId{r.get_u32()};
  e.seq = r.get_u64();
  e.event = decode_event_data(r);
  GRYPHON_CHECK_MSG(r.done(), "trailing bytes in event record");
  return e;
}

}  // namespace gryphon::core
