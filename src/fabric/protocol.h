// Fabric wire protocol: the message layer of the multi-process shard
// fabric (src/fabric/).
//
// Every message is one storage::wire frame (the SAME length-prefixed,
// versioned, CRC-checked framing the segment log's record codec uses —
// src/storage/wire.h), with a fabric magic and a one-byte frame type
// leading the payload:
//
//   u16 0xFAB1 | u8 version | u32 payload_len | payload | u32 crc
//   payload = u8 FrameType | type-specific body
//
// Composite bodies reuse existing codecs verbatim: APPEND carries
// single-prefix sub-updates encoded with bgp::encode_update_body, and
// QUERY results carry storage record payloads
// (storage::encode_event_payload) — so what crosses the socket is
// byte-identical to what a shard spills to its segment log.
//
// The hot APPEND path builds all of this in place — sub-updates encoded
// straight into a lane's byte log, frames assembled in one reused
// buffer (socket.h), decodes into reused scratch — without changing a
// byte of the layout below: buffer reuse is an implementation detail,
// never a protocol version.
//
// Version negotiation: each HELLO advertises the sender's readable
// [min, max] version range (this build sends [kFabricVersion,
// kFabricVersion]); the server answers with
// storage::wire::negotiate_version's pick or, when the ranges are
// disjoint, an ERROR frame that the router reports verbatim.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/bytes.h"
#include "routing/collectors.h"
#include "stream/update_block.h"

namespace bgpbh::fabric {

inline constexpr std::uint16_t kFabricMagic = 0xFAB1;
// The one protocol version this build speaks.  APPEND/QUERY/CHECKPOINT
// bodies carry a trace-context header (u64 trace_id | u64 origin_ns)
// and sub-updates a trailing u64 ingest stamp.
inline constexpr std::uint8_t kFabricVersion = 2;
// HANDOFF ships whole checkpoint + segment files in one frame; records
// are ~66 B each, so this comfortably covers a shard's working set.
inline constexpr std::uint32_t kMaxFabricPayload = 64u << 20;

// Slot/producer value a control connection's HELLO carries (control
// lanes append nothing; they issue QUERY/CHECKPOINT/HANDOFF/... RPCs).
inline constexpr std::uint32_t kControlLane = 0xFFFFFFFFu;

enum class FrameType : std::uint8_t {
  kHello = 1,        // u8 min_ver | u8 max_ver | u32 slot | u32 producer
  kHelloAck,         // u8 version | u64 accepted (sub-updates, data lanes)
  kAppend,           // u32 slot | u32 producer | u64 trace_id |
                     //   u64 origin_ns | u64 base | u32 n | n subs
  kAppendAck,        // u64 accepted_total | u64 durable_total
  kQuery,            // u32 slot | u64 trace_id | u64 origin_ns
  kQueryResult,      // u32 n | n event payloads (each u32-length-prefixed)
  kCheckpoint,       // u32 slot | u64 trace_id | u64 origin_ns
  kCheckpointAck,    // u8 ok | u32 p | p x u64 durable
  kClose,            // u32 slot | u64 end_time
  kCloseAck,         // (empty)
  kHealth,           // (empty)
  kHealthAck,        // u32 slots_hosted | u8 worst_state
  kHandoffFetch,     // u32 slot
  kHandoffState,     // file set (encode_files)
  kHandoffInstall,   // u32 slot | file set
  kHandoffAck,       // u8 ok | u32 p | p x u64 accepted
  kRelease,          // u32 slot
  kReleaseAck,       // (empty)
  kShutdown,         // (empty)
  kShutdownAck,      // (empty)
  kError,            // utf-8 message (rest of payload)
  kStats,            // u64 trace_id | u64 origin_ns | u32 max_spans
  kStatsAck,         // u32 n_slots | n x slot telemetry
                     //   (telemetry::encode_slot_telemetry)
};

// ---- sub-update codec -------------------------------------------------
// One single-prefix FeedUpdate, as the router ships each sub-update
// stream::split_update emits.  The body reuses the BGP UPDATE codec, so
// path attributes round-trip through the same fuzz-hardened decoder
// the MRT replay path uses; a trailing u64 carries the ingest stamp.
//
// make_sub_update writes sub-update (kind, prefix_index) of `fu` into
// `sub`: the wire decision is that a withdrawal carries no route
// attributes, while an announcement carries the update's AS path,
// communities, next hop and origin.  `sub` is caller scratch (the router
// keeps one per producer): every field is overwritten and its vectors'
// capacity is reused.
void make_sub_update(const routing::FeedUpdate& fu, stream::SubKind kind,
                     std::uint32_t prefix_index, std::uint64_t ingest_ns,
                     routing::FeedUpdate& sub);

// encode_sub_update appends to `out` in place (the body length is
// patched after the body), so a caller can encode many sub-updates back
// to back into one reused buffer.  decode_sub_update_into decodes into
// caller scratch, overwriting every field and reusing its vectors;
// decode_sub_update is the same decode into a fresh value.
void encode_sub_update(const routing::FeedUpdate& fu, net::BufWriter& out);
bool decode_sub_update_into(net::BufReader& in, routing::FeedUpdate& fu);
std::optional<routing::FeedUpdate> decode_sub_update(net::BufReader& in);

// ---- handoff file set -------------------------------------------------
// The shard-migration payload: every file of a quiesced slot's
// directory (checkpoint-*.ckpt + events-*.seg), name + raw bytes.
struct HandoffFile {
  std::string name;
  std::vector<std::uint8_t> bytes;
};
void encode_files(const std::vector<HandoffFile>& files, net::BufWriter& out);
std::optional<std::vector<HandoffFile>> decode_files(net::BufReader& in);

}  // namespace bgpbh::fabric
