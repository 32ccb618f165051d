#include "bgp/update.h"

#include <algorithm>
#include <cassert>

namespace bgpbh::bgp {

namespace {

// NLRI encoding: length octet + ceil(len/8) address bytes.
void encode_nlri_v4(const net::Prefix& p, net::BufWriter& w) {
  assert(p.is_v4());
  w.u8(p.len());
  std::uint32_t v = p.addr().v4().value();
  unsigned nbytes = (p.len() + 7) / 8;
  for (unsigned i = 0; i < nbytes; ++i) {
    w.u8(static_cast<std::uint8_t>(v >> (24 - 8 * i)));
  }
}

std::optional<net::Prefix> decode_nlri_v4(net::BufReader& r) {
  std::uint8_t len = r.u8();
  if (len > 32) return std::nullopt;
  unsigned nbytes = (len + 7u) / 8u;
  auto b = r.bytes(nbytes);
  if (!r.ok()) return std::nullopt;
  std::uint32_t v = 0;
  for (unsigned i = 0; i < 4; ++i) {
    v = (v << 8) | (i < nbytes ? b[i] : 0);
  }
  return net::Prefix(net::Ipv4Addr(v), len);
}

void encode_nlri_v6(const net::Prefix& p, net::BufWriter& w) {
  assert(!p.is_v4());
  w.u8(p.len());
  unsigned nbytes = (p.len() + 7) / 8;
  const auto& bytes = p.addr().v6().bytes();
  for (unsigned i = 0; i < nbytes; ++i) w.u8(bytes[i]);
}

std::optional<net::Prefix> decode_nlri_v6(net::BufReader& r) {
  std::uint8_t len = r.u8();
  if (len > 128) return std::nullopt;
  unsigned nbytes = (len + 7u) / 8u;
  auto b = r.bytes(nbytes);
  if (!r.ok()) return std::nullopt;
  net::Ipv6Addr::Bytes bytes{};
  for (unsigned i = 0; i < nbytes; ++i) bytes[i] = b[i];
  return net::Prefix(net::Ipv6Addr(bytes), len);
}

// Encoded NLRI size: the length octet plus the address bytes.
std::size_t nlri_size(const net::Prefix& p) { return 1 + (p.len() + 7u) / 8u; }

// Path attribute header: flags, type, length (1 or 2 bytes).
void attr_header(net::BufWriter& w, std::uint8_t flags, std::uint8_t type,
                 std::size_t length) {
  bool extended = length > 255;
  if (extended) flags |= 0x10;
  w.u8(flags);
  w.u8(type);
  if (extended) {
    w.u16(static_cast<std::uint16_t>(length));
  } else {
    w.u8(static_cast<std::uint8_t>(length));
  }
}

constexpr std::uint8_t kFlagTransitive = 0x40;
constexpr std::uint8_t kFlagOptTransitive = 0xC0;
constexpr std::uint8_t kFlagOptional = 0x80;

}  // namespace

void encode_update_body(const UpdateBody& body, net::BufWriter& w) {
  // Everything is written straight into `w`: a length either is known
  // before its field is written, or is written as 0 and patched.

  // Withdrawn routes (IPv4 only at top level).
  const std::size_t withdrawn_pos = w.size();
  w.u16(0);
  for (const auto& p : body.withdrawn) {
    if (p.is_v4()) encode_nlri_v4(p, w);
  }
  w.patch_u16(withdrawn_pos,
              static_cast<std::uint16_t>(w.size() - withdrawn_pos - 2));

  // Path attributes.
  const std::size_t attrs_pos = w.size();
  w.u16(0);
  if (!body.announced.empty()) {
    w.u8(kFlagTransitive);
    w.u8(kAttrOrigin);
    w.u8(1);
    w.u8(static_cast<std::uint8_t>(body.origin));

    // AS_PATH: AS_SEQUENCE segments of at most 255 hops each (the
    // segment count is one octet, RFC 4271), 4-byte ASNs (AS4 peers).
    const std::vector<Asn>& hops = body.as_path.hops();
    const std::size_t segments = (hops.size() + 254) / 255;
    attr_header(w, kFlagTransitive, kAttrAsPath,
                2 * segments + 4 * hops.size());
    for (std::size_t first = 0; first < hops.size(); first += 255) {
      const std::size_t n = std::min<std::size_t>(255, hops.size() - first);
      w.u8(2);  // AS_SEQUENCE
      w.u8(static_cast<std::uint8_t>(n));
      for (std::size_t i = first; i < first + n; ++i) w.u32(hops[i]);
    }

    if (body.next_hop && body.next_hop->is_v4()) {
      attr_header(w, kFlagTransitive, kAttrNextHop, 4);
      w.u32(body.next_hop->v4().value());
    }
  }
  if (!body.communities.classic().empty()) {
    attr_header(w, kFlagOptTransitive, kAttrCommunities,
                body.communities.classic().size() * 4);
    for (auto c : body.communities.classic()) w.u32(c.raw());
  }
  if (!body.communities.large().empty()) {
    attr_header(w, kFlagOptTransitive, kAttrLargeCommunities,
                body.communities.large().size() * 12);
    for (auto c : body.communities.large()) {
      w.u32(c.global_admin());
      w.u32(c.local1());
      w.u32(c.local2());
    }
  }
  // MP_REACH / MP_UNREACH for IPv6.
  std::size_t v6_announced = 0, v6_withdrawn = 0;
  for (const auto& p : body.announced) {
    if (!p.is_v4()) v6_announced += nlri_size(p);
  }
  for (const auto& p : body.withdrawn) {
    if (!p.is_v4()) v6_withdrawn += nlri_size(p);
  }
  if (v6_announced > 0) {
    // AFI(2)=IPv6, SAFI(1)=unicast, nexthop-len, nexthop, reserved, NLRI.
    const bool v6_next_hop = body.next_hop && body.next_hop->is_v6();
    attr_header(w, kFlagOptional, kAttrMpReachNlri,
                5 + (v6_next_hop ? 16 : 0) + v6_announced);
    w.u16(2);
    w.u8(1);
    if (v6_next_hop) {
      w.u8(16);
      w.bytes(body.next_hop->v6().bytes());
    } else {
      w.u8(0);
    }
    w.u8(0);  // reserved
    for (const auto& p : body.announced) {
      if (!p.is_v4()) encode_nlri_v6(p, w);
    }
  }
  if (v6_withdrawn > 0) {
    attr_header(w, kFlagOptional, kAttrMpUnreachNlri, 3 + v6_withdrawn);
    w.u16(2);
    w.u8(1);
    for (const auto& p : body.withdrawn) {
      if (!p.is_v4()) encode_nlri_v6(p, w);
    }
  }
  w.patch_u16(attrs_pos, static_cast<std::uint16_t>(w.size() - attrs_pos - 2));

  // IPv4 NLRI.
  for (const auto& p : body.announced) {
    if (p.is_v4()) encode_nlri_v4(p, w);
  }
}

bool decode_update_body_into(net::BufReader& r, UpdateBody& body) {
  body.announced.clear();
  body.withdrawn.clear();
  body.as_path.clear();
  body.next_hop.reset();
  body.communities.clear();
  body.origin = Origin::kIgp;

  std::uint16_t wd_len = r.u16();
  {
    net::BufReader wd = r.sub(wd_len);
    while (wd.ok() && wd.remaining() > 0) {
      auto p = decode_nlri_v4(wd);
      if (!p) return false;
      body.withdrawn.push_back(*p);
    }
    if (!wd.ok()) return false;
  }

  std::uint16_t attr_len = r.u16();
  {
    net::BufReader ar = r.sub(attr_len);
    while (ar.ok() && ar.remaining() > 0) {
      std::uint8_t flags = ar.u8();
      std::uint8_t type = ar.u8();
      std::size_t len = (flags & 0x10) ? ar.u16() : ar.u8();
      net::BufReader av = ar.sub(len);
      if (!ar.ok()) return false;
      switch (type) {
        case kAttrOrigin: {
          std::uint8_t o = av.u8();
          if (o > 2) return false;
          body.origin = static_cast<Origin>(o);
          break;
        }
        case kAttrAsPath: {
          // A repeated AS_PATH replaces the earlier one.
          body.as_path.clear();
          while (av.ok() && av.remaining() > 0) {
            std::uint8_t seg_type = av.u8();
            std::uint8_t count = av.u8();
            if (seg_type != 2) return false;  // AS_SEQUENCE only
            for (unsigned i = 0; i < count; ++i) {
              body.as_path.push_origin(av.u32());
            }
          }
          if (!av.ok()) return false;
          break;
        }
        case kAttrNextHop: {
          if (len != 4) return false;
          body.next_hop = net::IpAddr(net::Ipv4Addr(av.u32()));
          break;
        }
        case kAttrCommunities: {
          if (len % 4 != 0) return false;
          for (std::size_t i = 0; i < len / 4; ++i) {
            body.communities.add(Community(av.u32()));
          }
          break;
        }
        case kAttrLargeCommunities: {
          if (len % 12 != 0) return false;
          for (std::size_t i = 0; i < len / 12; ++i) {
            std::uint32_t g = av.u32(), l1 = av.u32(), l2 = av.u32();
            body.communities.add(LargeCommunity(g, l1, l2));
          }
          break;
        }
        case kAttrMpReachNlri: {
          std::uint16_t afi = av.u16();
          std::uint8_t safi = av.u8();
          std::uint8_t nh_len = av.u8();
          if (afi != 2 || safi != 1) return false;
          if (nh_len == 16) {
            auto nh = av.bytes(16);
            if (!av.ok()) return false;
            net::Ipv6Addr::Bytes b{};
            for (unsigned i = 0; i < 16; ++i) b[i] = nh[i];
            body.next_hop = net::IpAddr(net::Ipv6Addr(b));
          } else if (nh_len != 0) {
            av.skip(nh_len);
          }
          av.skip(1);  // reserved
          while (av.ok() && av.remaining() > 0) {
            auto p = decode_nlri_v6(av);
            if (!p) return false;
            body.announced.push_back(*p);
          }
          if (!av.ok()) return false;
          break;
        }
        case kAttrMpUnreachNlri: {
          std::uint16_t afi = av.u16();
          std::uint8_t safi = av.u8();
          if (afi != 2 || safi != 1) return false;
          while (av.ok() && av.remaining() > 0) {
            auto p = decode_nlri_v6(av);
            if (!p) return false;
            body.withdrawn.push_back(*p);
          }
          if (!av.ok()) return false;
          break;
        }
        default:
          break;  // tolerate unknown attributes (forward compat)
      }
      if (!av.ok()) return false;
    }
    if (!ar.ok()) return false;
  }

  // Remaining bytes: IPv4 NLRI.
  while (r.ok() && r.remaining() > 0) {
    auto p = decode_nlri_v4(r);
    if (!p) return false;
    body.announced.push_back(*p);
  }
  return r.ok();
}

std::optional<UpdateBody> decode_update_body(net::BufReader& r) {
  UpdateBody body;
  if (!decode_update_body_into(r, body)) return std::nullopt;
  return body;
}

void encode_update_message(const UpdateBody& body, net::BufWriter& w) {
  std::size_t start = w.size();
  for (int i = 0; i < 16; ++i) w.u8(0xFF);  // marker
  std::size_t len_pos = w.size();
  w.u16(0);  // length, patched below
  w.u8(2);   // type = UPDATE
  encode_update_body(body, w);
  w.patch_u16(len_pos, static_cast<std::uint16_t>(w.size() - start));
}

std::optional<UpdateBody> decode_update_message(net::BufReader& r) {
  auto marker = r.bytes(16);
  if (!r.ok()) return std::nullopt;
  for (auto b : marker) {
    if (b != 0xFF) return std::nullopt;
  }
  std::uint16_t len = r.u16();
  std::uint8_t type = r.u8();
  if (!r.ok() || type != 2 || len < 19) return std::nullopt;
  net::BufReader body = r.sub(len - 19);
  if (!r.ok()) return std::nullopt;
  return decode_update_body(body);
}

}  // namespace bgpbh::bgp
