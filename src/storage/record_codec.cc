#include "storage/record_codec.h"

#include <algorithm>

#include "storage/format.h"
#include "storage/wire.h"

namespace bgpbh::storage {

void encode_ip(const net::IpAddr& ip, net::BufWriter& out) {
  if (ip.is_v4()) {
    out.u8(4);
    out.u32(ip.v4().value());
  } else {
    out.u8(6);
    out.bytes(ip.v6().bytes());
  }
}

std::optional<net::IpAddr> decode_ip(net::BufReader& in) {
  switch (in.u8()) {
    case 4:
      return net::IpAddr(net::Ipv4Addr(in.u32()));
    case 6: {
      auto raw = in.bytes(16);
      if (raw.size() != 16) return std::nullopt;
      net::Ipv6Addr::Bytes bytes;
      std::copy(raw.begin(), raw.end(), bytes.begin());
      return net::IpAddr(net::Ipv6Addr(bytes));
    }
    default:
      return std::nullopt;
  }
}

void encode_prefix(const net::Prefix& prefix, net::BufWriter& out) {
  encode_ip(prefix.addr(), out);
  out.u8(prefix.len());
}

std::optional<net::Prefix> decode_prefix(net::BufReader& in) {
  auto addr = decode_ip(in);
  if (!addr) return std::nullopt;
  std::uint8_t len = in.u8();
  if (!in.ok() || len > addr->max_len()) return std::nullopt;
  net::Prefix prefix(*addr, len);
  // Non-canonical prefixes (host bits set past the length) never come
  // from our encoder; reject them so decode(encode(x)) == x is the
  // ONLY way a prefix round-trips.
  if (prefix.addr() != *addr) return std::nullopt;
  return prefix;
}

namespace {

constexpr std::uint8_t kFlagOpen = 1u << 0;
constexpr std::uint8_t kFlagExplicitWithdrawal = 1u << 1;
constexpr std::uint8_t kFlagTableDumpStart = 1u << 2;
constexpr std::uint8_t kKnownFlags =
    kFlagOpen | kFlagExplicitWithdrawal | kFlagTableDumpStart;

}  // namespace

void encode_event_payload(const core::PeerEvent& event, net::BufWriter& out) {
  out.u8(static_cast<std::uint8_t>(event.platform));
  encode_ip(event.peer.peer_ip, out);
  out.u32(event.peer.peer_asn);
  encode_prefix(event.prefix, out);
  out.u8(event.provider.is_ixp ? 1 : 0);
  out.u32(event.provider.asn);
  out.u32(event.provider.ixp_id);
  out.u32(event.user);
  out.u8(static_cast<std::uint8_t>(event.kind));
  out.u32(static_cast<std::uint32_t>(event.as_distance));
  out.u64(static_cast<std::uint64_t>(event.start));
  out.u64(static_cast<std::uint64_t>(event.end));
  std::uint8_t flags = 0;
  if (event.open) flags |= kFlagOpen;
  if (event.explicit_withdrawal) flags |= kFlagExplicitWithdrawal;
  if (event.started_in_table_dump) flags |= kFlagTableDumpStart;
  out.u8(flags);
  out.u16(static_cast<std::uint16_t>(event.communities.classic().size()));
  for (const auto& c : event.communities.classic()) out.u32(c.raw());
  out.u16(static_cast<std::uint16_t>(event.communities.large().size()));
  for (const auto& l : event.communities.large()) {
    out.u32(l.global_admin());
    out.u32(l.local1());
    out.u32(l.local2());
  }
}

std::optional<core::PeerEvent> decode_event_payload(net::BufReader& in) {
  core::PeerEvent event;
  std::uint8_t platform = in.u8();
  if (platform >= routing::kNumPlatforms) return std::nullopt;
  event.platform = static_cast<routing::Platform>(platform);
  auto peer_ip = decode_ip(in);
  if (!peer_ip) return std::nullopt;
  event.peer.peer_ip = *peer_ip;
  event.peer.peer_asn = in.u32();
  auto prefix = decode_prefix(in);
  if (!prefix) return std::nullopt;
  event.prefix = *prefix;
  std::uint8_t is_ixp = in.u8();
  if (is_ixp > 1) return std::nullopt;
  event.provider.is_ixp = is_ixp != 0;
  event.provider.asn = in.u32();
  event.provider.ixp_id = in.u32();
  event.user = in.u32();
  std::uint8_t kind = in.u8();
  if (kind > static_cast<std::uint8_t>(core::DetectionKind::kIxpPeerIp)) {
    return std::nullopt;
  }
  event.kind = static_cast<core::DetectionKind>(kind);
  event.as_distance = static_cast<std::int32_t>(in.u32());
  event.start = static_cast<util::SimTime>(in.u64());
  event.end = static_cast<util::SimTime>(in.u64());
  std::uint8_t flags = in.u8();
  if ((flags & ~kKnownFlags) != 0) return std::nullopt;
  event.open = (flags & kFlagOpen) != 0;
  event.explicit_withdrawal = (flags & kFlagExplicitWithdrawal) != 0;
  event.started_in_table_dump = (flags & kFlagTableDumpStart) != 0;
  std::uint16_t n_classic = in.u16();
  if (std::size_t{n_classic} * 4 > in.remaining()) return std::nullopt;
  for (std::uint16_t i = 0; i < n_classic; ++i) {
    event.communities.add(bgp::Community(in.u32()));
  }
  std::uint16_t n_large = in.u16();
  if (std::size_t{n_large} * 12 > in.remaining()) return std::nullopt;
  for (std::uint16_t i = 0; i < n_large; ++i) {
    std::uint32_t global = in.u32(), l1 = in.u32(), l2 = in.u32();
    event.communities.add(bgp::LargeCommunity(global, l1, l2));
  }
  if (!in.ok()) return std::nullopt;
  return event;
}

void encode_record(const core::PeerEvent& event, net::BufWriter& out) {
  const std::size_t start =
      wire::begin_frame(out, kRecordMagic, kRecordVersion);
  encode_event_payload(event, out);
  wire::end_frame(out, start);
}

std::optional<core::PeerEvent> decode_record(net::BufReader& in) {
  auto frame = wire::decode_frame(in, kRecordMagic, kRecordVersion,
                                  kRecordVersion, kMaxRecordPayload);
  if (!frame) return std::nullopt;
  net::BufReader body(frame->payload);
  auto event = decode_event_payload(body);
  // Trailing payload bytes mean the length field and the payload
  // disagree — a framing bug, not a valid record.
  if (!event || !body.ok() || !body.at_end()) return std::nullopt;
  return event;
}

}  // namespace bgpbh::storage
