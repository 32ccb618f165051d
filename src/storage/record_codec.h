// Binary codec for one core::PeerEvent as a self-describing on-disk
// record: length-prefixed, versioned, CRC-checked (format.h).
//
// The decoder is fuzz-hardened the same way the BGP/MRT/IPFIX codecs
// are (tests/test_fuzz_codecs.cc): any input — random bytes, bit
// flips, truncation, duplicated records — either decodes into a valid
// event whose CRC matched, or returns nullopt without crashing or
// over-reading.  This record format doubles as the wire format for the
// future multi-process sharding work (ROADMAP), which is why every
// record is independently framed rather than relying on segment
// context.
#pragma once

#include <optional>

#include "core/events.h"
#include "net/bytes.h"

namespace bgpbh::storage {

// Appends one framed record (magic | version | len | payload | crc).
void encode_record(const core::PeerEvent& event, net::BufWriter& out);

// Decodes one framed record, advancing `in` past it on success.  On
// failure the reader position is unspecified — segment readers resync
// by re-seeking, the recovery scan treats it as the torn tail.
std::optional<core::PeerEvent> decode_record(net::BufReader& in);

// Payload-level codec (no frame), shared by encode/decode_record and
// reusable as a message body by a future wire protocol.
void encode_event_payload(const core::PeerEvent& event, net::BufWriter& out);
std::optional<core::PeerEvent> decode_event_payload(net::BufReader& in);

// Shared IP / prefix primitives, reused by the checkpoint codec
// (src/recovery/) so both on-disk formats reject the same malformed
// inputs (unknown family, host bits set past the prefix length).
void encode_ip(const net::IpAddr& ip, net::BufWriter& out);
std::optional<net::IpAddr> decode_ip(net::BufReader& in);
void encode_prefix(const net::Prefix& prefix, net::BufWriter& out);
std::optional<net::Prefix> decode_prefix(net::BufReader& in);

}  // namespace bgpbh::storage
