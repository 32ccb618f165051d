#include "net/bytes.h"

#include <gtest/gtest.h>

#include <string_view>

#include "util/crc32.h"
#include "util/rng.h"

namespace bgpbh::net {
namespace {

TEST(BufWriter, BigEndianLayout) {
  BufWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  const auto& d = w.data();
  ASSERT_EQ(d.size(), 7u);
  EXPECT_EQ(d[0], 0xAB);
  EXPECT_EQ(d[1], 0x12);
  EXPECT_EQ(d[2], 0x34);
  EXPECT_EQ(d[3], 0xDE);
  EXPECT_EQ(d[6], 0xEF);
}

TEST(BufWriter, U64) {
  BufWriter w;
  w.u64(0x0102030405060708ULL);
  ASSERT_EQ(w.size(), 8u);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[7], 0x08);
}

TEST(BufWriter, Patch) {
  BufWriter w;
  w.u16(0);
  w.u32(0);
  w.patch_u16(0, 0xBEEF);
  w.patch_u32(2, 0x01020304);
  EXPECT_EQ(w.data()[0], 0xBE);
  EXPECT_EQ(w.data()[2], 0x01);
  EXPECT_EQ(w.data()[5], 0x04);
}

TEST(BufWriter, StrAndBytes) {
  BufWriter w;
  w.str("ab");
  std::uint8_t raw[] = {1, 2, 3};
  w.bytes(raw);
  EXPECT_EQ(w.size(), 5u);
  EXPECT_EQ(w.data()[0], 'a');
  EXPECT_EQ(w.data()[4], 3);
}

TEST(BufReader, ReadsBack) {
  BufWriter w;
  w.u8(7);
  w.u16(300);
  w.u32(1u << 30);
  w.u64(1ULL << 60);
  BufReader r(w.data());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 300);
  EXPECT_EQ(r.u32(), 1u << 30);
  EXPECT_EQ(r.u64(), 1ULL << 60);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(BufReader, TruncationLatchesError) {
  std::uint8_t raw[] = {1, 2};
  BufReader r(raw);
  EXPECT_EQ(r.u32(), 0u);  // truncated
  EXPECT_FALSE(r.ok());
  // Subsequent reads stay zero without UB.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BufReader, BytesTruncation) {
  std::uint8_t raw[] = {1, 2, 3};
  BufReader r(raw);
  auto got = r.bytes(5);
  EXPECT_TRUE(got.empty());
  EXPECT_FALSE(r.ok());
}

TEST(BufReader, SubReaderIsolatesRange) {
  BufWriter w;
  w.u16(0xAAAA);
  w.u16(0xBBBB);
  w.u16(0xCCCC);
  BufReader r(w.data());
  r.skip(2);
  BufReader sub = r.sub(2);
  EXPECT_EQ(sub.u16(), 0xBBBB);
  EXPECT_TRUE(sub.at_end());
  EXPECT_EQ(r.u16(), 0xCCCC);  // outer reader continues after the sub
  EXPECT_TRUE(r.ok());
}

TEST(BufWriter, ClearAndEraseFrontKeepCapacity) {
  BufWriter w;
  for (int i = 0; i < 100; ++i) w.u8(static_cast<std::uint8_t>(i));
  const std::size_t cap = w.data().capacity();
  w.erase_front(90);
  ASSERT_EQ(w.size(), 10u);
  EXPECT_EQ(w.data()[0], 90);
  EXPECT_EQ(w.data()[9], 99);
  EXPECT_EQ(w.data().capacity(), cap);
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.data().capacity(), cap);
  w.u32(0x01020304);
  EXPECT_EQ(w.data()[3], 0x04);
}

// The classic byte-at-a-time CRC-32 (IEEE, reflected 0xEDB88320), kept
// here as the reference the sliced implementation must equal.
std::uint32_t reference_crc32(std::span<const std::uint8_t> data,
                              std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// The standard check value: it pins every CRC already on disk (segment
// records, checkpoints) and on the fabric wire across versions.
TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(util::crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(util::crc32({}), 0u);
  EXPECT_EQ(util::crc32(as_bytes("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, ChainedCallsEqualOneShot) {
  util::Rng rng(41);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> buf(rng.uniform(300));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    const std::span<const std::uint8_t> all(buf);
    const std::size_t cut = rng.uniform(buf.size() + 1);
    const std::uint32_t chained =
        util::crc32(all.subspan(cut), util::crc32(all.first(cut)));
    EXPECT_EQ(chained, util::crc32(all)) << "size " << buf.size() << " cut "
                                         << cut;
  }
}

// Every length 0..300 covers every tail length mod 8, each with a zero
// and a nonzero seed.
TEST(Crc32, SlicedEqualsByteAtATimeReference) {
  util::Rng rng(7);
  for (std::size_t len = 0; len <= 300; ++len) {
    std::vector<std::uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    const std::uint32_t seed = static_cast<std::uint32_t>(rng.next_u64());
    EXPECT_EQ(util::crc32(buf), reference_crc32(buf, 0)) << "len " << len;
    EXPECT_EQ(util::crc32(buf, seed), reference_crc32(buf, seed))
        << "len " << len;
  }
}

TEST(BufReader, EmptyBuffer) {
  BufReader r(std::span<const std::uint8_t>{});
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.ok());
}

}  // namespace
}  // namespace bgpbh::net
