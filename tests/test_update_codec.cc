#include "bgp/update.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.h"

namespace bgpbh::bgp {
namespace {

net::Prefix P(const char* s) { return *net::Prefix::parse(s); }

UpdateBody sample_body() {
  UpdateBody body;
  body.announced.push_back(P("130.149.1.1/32"));
  body.announced.push_back(P("20.1.0.0/16"));
  body.withdrawn.push_back(P("20.2.0.0/24"));
  body.as_path = AsPath::of({3356, 64500});
  body.next_hop = *net::IpAddr::parse("198.51.100.1");
  body.communities.add(Community(65535, 666));
  body.communities.add(Community(3356, 9999));
  body.origin = Origin::kIgp;
  return body;
}

TEST(UpdateCodec, RoundTripBody) {
  UpdateBody body = sample_body();
  net::BufWriter w;
  encode_update_body(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_body(r);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, body);
}

TEST(UpdateCodec, RoundTripMessage) {
  UpdateBody body = sample_body();
  net::BufWriter w;
  encode_update_message(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_message(r);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, body);
}

// The AS_SEQUENCE segment count is one octet: a path longer than 255
// hops is split into several segments and decodes back whole.  255 is
// the last length that fits one segment; 1024 is the quarantine's
// default path limit.
TEST(UpdateCodec, LongAsPathsRoundTripAcrossSegments) {
  for (std::size_t hops : {255u, 256u, 300u, 1024u}) {
    UpdateBody body = sample_body();
    std::vector<Asn> path;
    for (std::size_t i = 0; i < hops; ++i) {
      path.push_back(static_cast<Asn>(64500 + i % 7));
    }
    body.as_path = AsPath(std::move(path));
    net::BufWriter w;
    encode_update_body(body, w);
    net::BufReader r(w.data());
    auto decoded = decode_update_body(r);
    ASSERT_TRUE(decoded) << hops << " hops";
    EXPECT_EQ(*decoded, body) << hops << " hops";
    net::BufWriter m;
    encode_update_message(body, m);
    net::BufReader mr(m.data());
    auto message = decode_update_message(mr);
    ASSERT_TRUE(message) << hops << " hops";
    EXPECT_EQ(*message, body) << hops << " hops";
  }
}

TEST(UpdateCodec, WithdrawalOnly) {
  UpdateBody body;
  body.withdrawn.push_back(P("130.149.1.1/32"));
  EXPECT_TRUE(body.is_withdrawal_only());
  net::BufWriter w;
  encode_update_body(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_body(r);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->is_withdrawal_only());
  EXPECT_EQ(decoded->withdrawn, body.withdrawn);
}

TEST(UpdateCodec, LargeCommunities) {
  UpdateBody body;
  body.announced.push_back(P("20.0.0.1/32"));
  body.as_path = AsPath::of({64500});
  body.communities.add(LargeCommunity(64500, 666, 0));
  net::BufWriter w;
  encode_update_body(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_body(r);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->communities.contains(LargeCommunity(64500, 666, 0)));
}

TEST(UpdateCodec, Ipv6ViaMpReach) {
  UpdateBody body;
  body.announced.push_back(P("2a00:1::dead:beef/128"));
  body.as_path = AsPath::of({64500});
  body.next_hop = *net::IpAddr::parse("2001:7f8::66");
  body.communities.add(Community(65535, 666));
  net::BufWriter w;
  encode_update_body(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_body(r);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, body);
}

TEST(UpdateCodec, Ipv6Withdrawal) {
  UpdateBody body;
  body.withdrawn.push_back(P("2a00:1::/32"));
  net::BufWriter w;
  encode_update_body(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_body(r);
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->withdrawn.size(), 1u);
  EXPECT_EQ(decoded->withdrawn[0], body.withdrawn[0]);
}

TEST(UpdateCodec, MixedFamilies) {
  UpdateBody body;
  body.announced.push_back(P("20.0.0.1/32"));
  body.announced.push_back(P("2a00:1::1/128"));
  body.as_path = AsPath::of({100, 200});
  body.next_hop = *net::IpAddr::parse("20.0.0.254");
  net::BufWriter w;
  encode_update_body(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_body(r);
  ASSERT_TRUE(decoded);
  // Both families present; order may interleave (v4 NLRI after attrs).
  ASSERT_EQ(decoded->announced.size(), 2u);
}

TEST(UpdateCodec, TruncatedInputFails) {
  UpdateBody body = sample_body();
  net::BufWriter w;
  encode_update_body(body, w);
  for (std::size_t cut : {1ul, 5ul, 10ul, w.size() - 1}) {
    std::vector<std::uint8_t> truncated(w.data().begin(),
                                        w.data().begin() + cut);
    net::BufReader r(truncated);
    EXPECT_FALSE(decode_update_body(r)) << "cut=" << cut;
  }
}

TEST(UpdateCodec, BadMarkerRejected) {
  UpdateBody body = sample_body();
  net::BufWriter w;
  encode_update_message(body, w);
  auto bytes = w.take();
  bytes[0] = 0x00;
  net::BufReader r(bytes);
  EXPECT_FALSE(decode_update_message(r));
}

TEST(UpdateCodec, PrefixLenOver32Rejected) {
  // Hand-craft: withdrawn len 0, attrs len 0, NLRI with len byte 40.
  net::BufWriter w;
  w.u16(0);
  w.u16(0);
  w.u8(40);
  w.u32(0x01020304);
  net::BufReader r(w.data());
  EXPECT_FALSE(decode_update_body(r));
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// Golden wire bytes: what encode_update_body emits for each body shape
// is pinned, so a change to how the encoder builds its output (straight
// into the caller's writer, lengths patched afterwards) can never
// change a byte of the MRT archives or the fabric APPEND frames.  Each
// body is also encoded after a few bytes already in the writer, which
// must not move any patched length.
TEST(UpdateCodec, GoldenBytes) {
  struct Case {
    const char* name;
    UpdateBody body;
    const char* hex;
  };
  std::vector<Case> cases;
  {
    UpdateBody b;
    b.announced.push_back(P("20.1.0.0/16"));
    b.as_path = AsPath::of({3356, 1299, 64500});
    b.next_hop = *net::IpAddr::parse("198.51.100.1");
    b.communities.add(Community(65535, 666));
    b.communities.add(Community(3356, 9999));
    cases.push_back({"v4 announcement", b,
      "000000274001010040020e020300000d1c000005130000fbf4400304c6336401"
      "c008080d1c270fffff029a101401"});
  }
  {
    UpdateBody b;
    b.withdrawn.push_back(P("130.149.1.1/32"));
    cases.push_back({"v4 withdrawal", b, "000520829501010000"});
  }
  {
    UpdateBody b;
    b.announced.push_back(P("2a00:1::/32"));
    b.as_path = AsPath::of({64500, 64501});
    b.next_hop = *net::IpAddr::parse("2001:7f8::66");
    cases.push_back({"v6 announcement", b,
      "0000002e4001010040020a02020000fbf40000fbf5800e1a00020110200107f8"
      "00000000000000000000006600202a000001"});
  }
  {
    UpdateBody b;
    b.withdrawn.push_back(P("2a00:1::dead:beef/128"));
    cases.push_back({"v6 withdrawal", b,
      "00000017800f14000201802a0000010000000000000000deadbeef"});
  }
  {
    // 64 communities = 256 bytes: the extended attribute length.
    UpdateBody b;
    b.announced.push_back(P("20.7.0.0/24"));
    b.as_path = AsPath::of({64500});
    for (std::uint16_t i = 0; i < 64; ++i) b.communities.add(Community(64500, i));
    cases.push_back({"extended-length communities", b,
      "000001114001010040020602010000fbf4d0080100fbf40000fbf40001fbf400"
      "02fbf40003fbf40004fbf40005fbf40006fbf40007fbf40008fbf40009fbf400"
      "0afbf4000bfbf4000cfbf4000dfbf4000efbf4000ffbf40010fbf40011fbf400"
      "12fbf40013fbf40014fbf40015fbf40016fbf40017fbf40018fbf40019fbf400"
      "1afbf4001bfbf4001cfbf4001dfbf4001efbf4001ffbf40020fbf40021fbf400"
      "22fbf40023fbf40024fbf40025fbf40026fbf40027fbf40028fbf40029fbf400"
      "2afbf4002bfbf4002cfbf4002dfbf4002efbf4002ffbf40030fbf40031fbf400"
      "32fbf40033fbf40034fbf40035fbf40036fbf40037fbf40038fbf40039fbf400"
      "3afbf4003bfbf4003cfbf4003dfbf4003efbf4003f18140700"});
  }
  {
    UpdateBody b;
    b.announced.push_back(P("20.0.0.1/32"));
    b.as_path = AsPath::of({64500});
    b.communities.add(LargeCommunity(64500, 666, 0));
    b.communities.add(LargeCommunity(4200000000u, 1, 2));
    cases.push_back({"large communities", b,
      "000000284001010040020602010000fbf4c020180000fbf40000029a00000000"
      "fa56ea0000000001000000022014000001"});
  }
  {
    UpdateBody b;
    b.announced.push_back(P("20.9.0.0/16"));
    b.origin = Origin::kIncomplete;
    cases.push_back({"empty path", b, "0000000740010102400200101409"});
  }
  for (const Case& c : cases) {
    net::BufWriter w;
    encode_update_body(c.body, w);
    EXPECT_EQ(hex(w.data()), c.hex) << c.name;
    net::BufWriter after;
    after.u8(0xEE);
    after.u16(0xEEEE);
    encode_update_body(c.body, after);
    EXPECT_EQ(hex(after.data()), std::string("eeeeee") + c.hex) << c.name;
    net::BufReader r(w.data());
    auto decoded = decode_update_body(r);
    ASSERT_TRUE(decoded) << c.name;
    EXPECT_EQ(*decoded, c.body) << c.name;
  }
}

// Decoding into reused scratch: a bare withdrawal decoded after a rich
// body must come out exactly as a fresh decode — no path, communities,
// next hop or origin left over from the earlier body.
TEST(UpdateCodec, DecodeIntoScratchLeavesNothingStale) {
  UpdateBody rich;
  rich.announced.push_back(P("20.1.0.0/16"));
  rich.announced.push_back(P("2a00:1::/32"));
  rich.withdrawn.push_back(P("20.2.0.0/24"));
  rich.withdrawn.push_back(P("2a00:2::/48"));
  rich.as_path = AsPath::of({3356, 3356, 1299, 64500});
  rich.next_hop = *net::IpAddr::parse("2001:7f8::66");
  rich.communities.add(Community(65535, 666));
  rich.communities.add(LargeCommunity(64500, 666, 0));
  rich.origin = Origin::kIncomplete;
  UpdateBody bare;
  bare.withdrawn.push_back(P("130.149.1.1/32"));

  UpdateBody scratch;
  for (const UpdateBody* body : {&rich, &bare, &rich, &bare}) {
    net::BufWriter w;
    encode_update_body(*body, w);
    net::BufReader into_reader(w.data());
    ASSERT_TRUE(decode_update_body_into(into_reader, scratch));
    net::BufReader fresh_reader(w.data());
    auto fresh = decode_update_body(fresh_reader);
    ASSERT_TRUE(fresh);
    EXPECT_EQ(scratch, *fresh);
  }
  EXPECT_TRUE(scratch.as_path.empty());
  EXPECT_TRUE(scratch.communities.empty());
  EXPECT_FALSE(scratch.next_hop.has_value());
  EXPECT_EQ(scratch.origin, Origin::kIgp);
  EXPECT_TRUE(scratch.announced.empty());
  EXPECT_EQ(scratch.withdrawn, bare.withdrawn);
}

// Property: random bodies survive the codec byte-exactly.
class UpdateCodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UpdateCodecProperty, RandomRoundTrip) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    UpdateBody body;
    std::size_t n_ann = rng.uniform(4);
    for (std::size_t i = 0; i < n_ann; ++i) {
      std::uint32_t addr = static_cast<std::uint32_t>(rng.next_u64());
      std::uint8_t len = static_cast<std::uint8_t>(rng.uniform(33));
      body.announced.emplace_back(net::IpAddr(net::Ipv4Addr(addr)), len);
    }
    std::size_t n_wd = rng.uniform(3);
    for (std::size_t i = 0; i < n_wd; ++i) {
      std::uint32_t addr = static_cast<std::uint32_t>(rng.next_u64());
      body.withdrawn.emplace_back(net::IpAddr(net::Ipv4Addr(addr)),
                                  static_cast<std::uint8_t>(rng.uniform(33)));
    }
    if (!body.announced.empty()) {
      std::vector<Asn> hops;
      std::size_t n_hops = 1 + rng.uniform(6);
      for (std::size_t i = 0; i < n_hops; ++i) {
        hops.push_back(static_cast<Asn>(1 + rng.uniform(1 << 20)));
      }
      body.as_path = AsPath(std::move(hops));
      body.next_hop =
          net::IpAddr(net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())));
      body.origin = static_cast<Origin>(rng.uniform(3));
    }
    std::size_t n_comm = rng.uniform(5);
    for (std::size_t i = 0; i < n_comm; ++i) {
      body.communities.add(Community(static_cast<std::uint32_t>(rng.next_u64())));
    }
    if (rng.bernoulli(0.3)) {
      body.communities.add(LargeCommunity(
          static_cast<std::uint32_t>(rng.next_u64()),
          static_cast<std::uint32_t>(rng.next_u64()),
          static_cast<std::uint32_t>(rng.next_u64())));
    }

    net::BufWriter w;
    encode_update_body(body, w);
    net::BufReader r(w.data());
    auto decoded = decode_update_body(r);
    ASSERT_TRUE(decoded);
    // Announced prefixes may reorder across v4/v6 attribute boundaries,
    // but here everything is v4, so exact equality must hold.
    EXPECT_EQ(*decoded, body);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateCodecProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace bgpbh::bgp
