// On-disk format of the persistent event store (src/storage/).
//
// A store directory holds a sequence of append-only *segment* files:
//
//   events-000001.seg
//   events-000002.seg          <- rolled by size / time span
//   events-000003.seg          <- active (footer written at seal time)
//
// Each segment is
//
//   +--------+---------------------------------------+----------------+
//   | header | record, record, record, ...           | footer+trailer |
//   +--------+---------------------------------------+----------------+
//
//   header   8 B   u32 magic "BHSG" | u8 version | 3 B reserved
//   record         u16 magic | u8 version | u32 payload_len |
//                  payload | u32 crc32(version + payload)
//   footer         sparse time index (one entry per block of
//                  `index_block_records` records: file offset, record
//                  count, [min_start, max_end] of the block) + segment
//                  summary (record count, time range)
//   trailer  12 B  u32 footer_len | u32 crc32(footer) | u32 magic
//
// All integers are big-endian (net::BufWriter).  A segment with a
// valid trailer is *sealed*: readers trust its footer and seek
// straight to the index blocks a time-window query overlaps.  A
// segment without one (the writer crashed) is recovered by scanning
// records from the header and truncating at the first torn or
// CRC-failing record — only the unacked tail is ever lost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/bytes.h"
#include "util/time.h"

namespace bgpbh::storage {

// ---- magics & versions ------------------------------------------------

inline constexpr std::uint32_t kSegmentMagic = 0x42485347;  // "BHSG"
inline constexpr std::uint32_t kFooterMagic = 0x42484658;   // "BHFX"
inline constexpr std::uint16_t kRecordMagic = 0xEB1C;
inline constexpr std::uint8_t kFormatVersion = 1;
inline constexpr std::uint8_t kRecordVersion = 1;

inline constexpr std::size_t kSegmentHeaderBytes = 8;
inline constexpr std::size_t kTrailerBytes = 12;

// Decoder hard cap on one record's payload, so a corrupted length
// field can never trigger a giant allocation.
inline constexpr std::uint32_t kMaxRecordPayload = 1u << 20;

// "events-000042.seg".
std::string segment_file_name(std::uint64_t seq);
// Inverse; returns 0 for names that are not segment files (seq starts
// at 1).
std::uint64_t parse_segment_seq(const std::string& file_name);

// ---- sparse time index ------------------------------------------------

// One entry per block of `index_block_records` consecutive records.
// Records inside a segment are in *arrival* order (spill chunks from
// concurrent store lanes interleave), so the index keys each block by
// the [min_start, max_end] envelope of its records: a time-window scan
// decodes only the blocks whose envelope overlaps the window
// (core::overlaps_window) and seeks past the rest.
struct IndexEntry {
  std::uint64_t offset = 0;  // file offset of the block's first record
  std::uint32_t records = 0;
  util::SimTime min_start = 0;
  util::SimTime max_end = 0;
};

// Per-segment summary persisted in the footer (and rebuilt by
// recovery): lets SegmentSet skip whole segments outside the window.
struct SegmentMeta {
  std::uint64_t seq = 0;
  std::uint32_t record_count = 0;
  util::SimTime min_start = 0;
  util::SimTime max_end = 0;
  bool sealed = false;          // valid footer on disk
  std::uint64_t file_bytes = 0;
  std::vector<IndexEntry> index;
};

// ---- header / footer codec (shared by writer, reader, recovery) -------

// Appends the 8-byte segment header.
void encode_segment_header(net::BufWriter& out);
// True if `file` starts with a valid header of a version we can read.
bool check_segment_header(std::span<const std::uint8_t> file);

// Appends the footer payload + 12-byte trailer for a segment whose
// index and summary are in `meta`.
void encode_footer(const SegmentMeta& meta, net::BufWriter& out);

// Parses the 12-byte trailer at the end of a segment; nullopt when the
// magic is wrong (unsealed segment).
struct Trailer {
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};
std::optional<Trailer> parse_trailer(std::span<const std::uint8_t> trailer);

// CRC-checks + parses a footer payload (the bytes between the last
// record and the trailer).  On success fills meta's record_count /
// time range / index and marks it sealed.
bool parse_footer_payload(std::span<const std::uint8_t> payload,
                          std::uint32_t expected_crc, SegmentMeta& meta);

// ---- knobs ------------------------------------------------------------

class FileOps;  // file_ops.h

struct SegmentConfig {
  // Roll to a new segment once the active one's record bytes exceed
  // this.
  std::uint64_t max_segment_bytes = 8ull << 20;
  // Roll once max_end - min_start of the active segment exceeds this
  // (0 = no time-based rolling).
  util::SimTime max_segment_span = 0;
  // Sparse-index granularity: records per index block.
  std::size_t index_block_records = 64;
  // fsync() on seal and on explicit sync() — the durability ack point.
  // Off by default: tests and benches want page-cache speed; a
  // production monitor turns it on.
  bool fsync_on_seal = false;

  // Retention, applied oldest-segment-first each time a segment seals
  // (the active segment is never deleted; 0 = unlimited).
  std::uint64_t retain_max_bytes = 0;
  std::uint64_t retain_max_segments = 0;

  // Write/flush/sync indirection (file_ops.h); null = the real file
  // API.  Fault-injection tests plug a fault::FaultyFileOps in here.
  // Must outlive the writer.
  FileOps* file_ops = nullptr;
};

}  // namespace bgpbh::storage
