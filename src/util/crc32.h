// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte spans.
//
// Integrity check for the persistent event store's on-disk records and
// segment footers (src/storage/): every record carries the CRC of its
// version byte + payload, so a torn or bit-flipped tail is detected and
// truncated on recovery instead of decoding into garbage events.  The
// same CRC guards checkpoints and every fabric wire frame.
//
// Sliced by 8: eight tables built at compile time let one step consume
// eight input bytes.  The values are the classic byte-at-a-time CRC's,
// bit for bit (crc32("123456789") == 0xCBF43926), so every on-disk and
// on-wire CRC written by earlier builds still verifies.
#pragma once

#include <cstdint>
#include <span>

namespace bgpbh::util {

// CRC of `data`; chain calls by passing the previous result as `seed`
// (the seed is the running CRC, not the raw register value).
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0);

}  // namespace bgpbh::util
