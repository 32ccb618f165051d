#include "recovery/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "storage/file_ops.h"
#include "storage/format.h"
#include "storage/record_codec.h"
#include "util/crc32.h"
#include "util/log.h"

namespace bgpbh::recovery {

namespace fs = std::filesystem;

namespace {

// Decoder caps so a corrupted count field can never trigger a giant
// allocation (same discipline as storage::kMaxRecordPayload).
constexpr std::uint32_t kMaxShards = 1u << 16;
constexpr std::uint32_t kMaxProducers = 1u << 16;

constexpr std::uint8_t kFlagIncludesTableDump = 1u << 0;
constexpr std::uint8_t kKnownFlags = kFlagIncludesTableDump;

void encode_open_state(const core::OpenEventState& s, net::BufWriter& out) {
  storage::encode_ip(s.peer.peer_ip, out);
  out.u32(s.peer.peer_asn);
  storage::encode_prefix(s.prefix, out);
  out.u64(static_cast<std::uint64_t>(s.start));
  out.u8(static_cast<std::uint8_t>(s.platform));
  out.u8(s.from_table_dump ? 1 : 0);
  out.u16(static_cast<std::uint16_t>(s.detections.size()));
  for (const core::OpenDetection& d : s.detections) {
    out.u8(d.provider.is_ixp ? 1 : 0);
    out.u32(d.provider.asn);
    out.u32(d.provider.ixp_id);
    out.u32(d.user);
    out.u8(static_cast<std::uint8_t>(d.kind));
    out.u32(static_cast<std::uint32_t>(d.as_distance));
  }
  out.u16(static_cast<std::uint16_t>(s.communities.classic().size()));
  for (const auto& c : s.communities.classic()) out.u32(c.raw());
  out.u16(static_cast<std::uint16_t>(s.communities.large().size()));
  for (const auto& l : s.communities.large()) {
    out.u32(l.global_admin());
    out.u32(l.local1());
    out.u32(l.local2());
  }
}

std::optional<core::OpenEventState> decode_open_state(net::BufReader& in) {
  core::OpenEventState s;
  auto peer_ip = storage::decode_ip(in);
  if (!peer_ip) return std::nullopt;
  s.peer.peer_ip = *peer_ip;
  s.peer.peer_asn = in.u32();
  auto prefix = storage::decode_prefix(in);
  if (!prefix) return std::nullopt;
  s.prefix = *prefix;
  s.start = static_cast<util::SimTime>(in.u64());
  std::uint8_t platform = in.u8();
  if (platform >= routing::kNumPlatforms) return std::nullopt;
  s.platform = static_cast<routing::Platform>(platform);
  std::uint8_t from_dump = in.u8();
  if (from_dump > 1) return std::nullopt;
  s.from_table_dump = from_dump != 0;
  std::uint16_t n_det = in.u16();
  if (std::size_t{n_det} * 18 > in.remaining()) return std::nullopt;
  s.detections.reserve(n_det);
  for (std::uint16_t i = 0; i < n_det; ++i) {
    core::OpenDetection d;
    std::uint8_t is_ixp = in.u8();
    if (is_ixp > 1) return std::nullopt;
    d.provider.is_ixp = is_ixp != 0;
    d.provider.asn = in.u32();
    d.provider.ixp_id = in.u32();
    d.user = in.u32();
    std::uint8_t kind = in.u8();
    if (kind > static_cast<std::uint8_t>(core::DetectionKind::kIxpPeerIp)) {
      return std::nullopt;
    }
    d.kind = static_cast<core::DetectionKind>(kind);
    d.as_distance = static_cast<std::int32_t>(in.u32());
    s.detections.push_back(d);
  }
  std::uint16_t n_classic = in.u16();
  if (std::size_t{n_classic} * 4 > in.remaining()) return std::nullopt;
  for (std::uint16_t i = 0; i < n_classic; ++i) {
    s.communities.add(bgp::Community(in.u32()));
  }
  std::uint16_t n_large = in.u16();
  if (std::size_t{n_large} * 12 > in.remaining()) return std::nullopt;
  for (std::uint16_t i = 0; i < n_large; ++i) {
    std::uint32_t global = in.u32(), l1 = in.u32(), l2 = in.u32();
    s.communities.add(bgp::LargeCommunity(global, l1, l2));
  }
  if (!in.ok()) return std::nullopt;
  return s;
}

void encode_prefix_event(const core::PrefixEvent& e, net::BufWriter& out) {
  storage::encode_prefix(e.prefix, out);
  out.u64(static_cast<std::uint64_t>(e.start));
  out.u64(static_cast<std::uint64_t>(e.end));
  out.u32(static_cast<std::uint32_t>(e.providers.size()));
  for (const core::ProviderRef& p : e.providers) {
    out.u8(p.is_ixp ? 1 : 0);
    out.u32(p.asn);
    out.u32(p.ixp_id);
  }
  out.u32(static_cast<std::uint32_t>(e.users.size()));
  for (core::Asn u : e.users) out.u32(u);
  out.u64(static_cast<std::uint64_t>(e.num_peer_events));
  out.u8(e.includes_table_dump_start ? 1 : 0);
}

std::optional<core::PrefixEvent> decode_prefix_event(net::BufReader& in) {
  core::PrefixEvent e;
  auto prefix = storage::decode_prefix(in);
  if (!prefix) return std::nullopt;
  e.prefix = *prefix;
  e.start = static_cast<util::SimTime>(in.u64());
  e.end = static_cast<util::SimTime>(in.u64());
  std::uint32_t n_providers = in.u32();
  if (std::size_t{n_providers} * 9 > in.remaining()) return std::nullopt;
  for (std::uint32_t i = 0; i < n_providers; ++i) {
    core::ProviderRef p;
    std::uint8_t is_ixp = in.u8();
    if (is_ixp > 1) return std::nullopt;
    p.is_ixp = is_ixp != 0;
    p.asn = in.u32();
    p.ixp_id = in.u32();
    e.providers.insert(p);
  }
  std::uint32_t n_users = in.u32();
  if (std::size_t{n_users} * 4 > in.remaining()) return std::nullopt;
  for (std::uint32_t i = 0; i < n_users; ++i) e.users.insert(in.u32());
  e.num_peer_events = static_cast<std::size_t>(in.u64());
  std::uint8_t dump_start = in.u8();
  if (dump_start > 1) return std::nullopt;
  e.includes_table_dump_start = dump_start != 0;
  if (!in.ok()) return std::nullopt;
  return e;
}

bool decode_prefix_events(net::BufReader& in,
                          std::vector<core::PrefixEvent>& out) {
  std::uint32_t count = in.u32();
  // Smallest possible entry: v4 prefix(6) + times(16) + counts(8) +
  // num_peer_events(8) + flag(1).
  if (std::size_t{count} * 39 > in.remaining()) return false;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto e = decode_prefix_event(in);
    if (!e) return false;
    out.push_back(std::move(*e));
  }
  return true;
}

// All checkpoint files in `dir`, newest first.
std::vector<std::pair<std::uint64_t, fs::path>> list_checkpoints(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, fs::path>> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::uint64_t seq = parse_checkpoint_seq(entry.path().filename().string());
    if (seq != 0) out.emplace_back(seq, entry.path());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

void prune_checkpoints(const std::string& dir, std::size_t keep) {
  auto files = list_checkpoints(dir);
  std::error_code ec;
  for (std::size_t i = keep; i < files.size(); ++i) {
    fs::remove(files[i].second, ec);
  }
  // Leftover tmp files from a crashed writer are garbage by definition
  // (the rename never happened).
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".tmp") fs::remove(entry.path(), ec);
  }
}

}  // namespace

void encode_checkpoint_payload(const Checkpoint& cp, net::BufWriter& out) {
  out.u64(cp.seq);
  out.u32(cp.num_shards);
  out.u32(cp.num_producers);
  std::uint8_t flags = 0;
  if (cp.includes_table_dump) flags |= kFlagIncludesTableDump;
  out.u8(flags);
  out.u64(cp.position.seq);
  out.u64(cp.position.records);
  for (const ShardCheckpoint& shard : cp.shards) {
    for (std::uint64_t w : shard.watermarks) out.u64(w);
    out.u32(static_cast<std::uint32_t>(shard.open_state.size()));
    for (const core::OpenEventState& s : shard.open_state) {
      encode_open_state(s, out);
    }
  }
  for (const auto* layer : {&cp.correlated, &cp.grouped}) {
    out.u32(static_cast<std::uint32_t>(layer->size()));
    for (const core::PrefixEvent& e : *layer) encode_prefix_event(e, out);
  }
}

std::optional<Checkpoint> decode_checkpoint_payload(net::BufReader& in) {
  Checkpoint cp;
  cp.seq = in.u64();
  cp.num_shards = in.u32();
  cp.num_producers = in.u32();
  if (!in.ok() || cp.num_shards == 0 || cp.num_shards > kMaxShards ||
      cp.num_producers == 0 || cp.num_producers > kMaxProducers) {
    return std::nullopt;
  }
  std::uint8_t flags = in.u8();
  if ((flags & ~kKnownFlags) != 0) return std::nullopt;
  cp.includes_table_dump = (flags & kFlagIncludesTableDump) != 0;
  cp.position.seq = in.u64();
  cp.position.records = in.u64();
  if (std::size_t{cp.num_shards} * (std::size_t{cp.num_producers} * 8 + 4) >
      in.remaining()) {
    return std::nullopt;
  }
  cp.shards.resize(cp.num_shards);
  for (ShardCheckpoint& shard : cp.shards) {
    shard.watermarks.reserve(cp.num_producers);
    for (std::uint32_t p = 0; p < cp.num_producers; ++p) {
      shard.watermarks.push_back(in.u64());
    }
    std::uint32_t n_open = in.u32();
    // Smallest open state: v4 peer(5) + asn(4) + prefix(6) + start(8) +
    // platform(1) + flag(1) + three empty counts(6).
    if (std::size_t{n_open} * 31 > in.remaining()) return std::nullopt;
    shard.open_state.reserve(n_open);
    for (std::uint32_t i = 0; i < n_open; ++i) {
      auto s = decode_open_state(in);
      if (!s) return std::nullopt;
      shard.open_state.push_back(std::move(*s));
    }
  }
  if (!decode_prefix_events(in, cp.correlated)) return std::nullopt;
  if (!decode_prefix_events(in, cp.grouped)) return std::nullopt;
  if (!in.ok()) return std::nullopt;
  return cp;
}

std::vector<std::uint8_t> encode_checkpoint_file(const Checkpoint& cp) {
  net::BufWriter payload;
  encode_checkpoint_payload(cp, payload);
  net::BufWriter out;
  out.u32(kCheckpointMagic);
  out.u8(kCheckpointVersion);
  out.bytes(payload.data());
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.u32(util::crc32(payload.data()));
  out.u32(kCheckpointMagic);
  return out.take();
}

std::optional<Checkpoint> decode_checkpoint_file(
    std::span<const std::uint8_t> file) {
  if (file.size() < kCheckpointHeaderBytes + kCheckpointTrailerBytes) {
    return std::nullopt;
  }
  net::BufReader head(file);
  if (head.u32() != kCheckpointMagic || head.u8() != kCheckpointVersion) {
    return std::nullopt;
  }
  net::BufReader tail(file.subspan(file.size() - kCheckpointTrailerBytes));
  std::uint32_t payload_len = tail.u32();
  std::uint32_t payload_crc = tail.u32();
  if (tail.u32() != kCheckpointMagic) return std::nullopt;
  if (payload_len !=
      file.size() - kCheckpointHeaderBytes - kCheckpointTrailerBytes) {
    return std::nullopt;
  }
  auto payload = file.subspan(kCheckpointHeaderBytes, payload_len);
  if (util::crc32(payload) != payload_crc) return std::nullopt;
  net::BufReader in(payload);
  auto cp = decode_checkpoint_payload(in);
  // Trailing payload bytes mean the length field and the payload
  // disagree — a framing bug, not a valid checkpoint.
  if (!cp || !in.ok() || !in.at_end()) return std::nullopt;
  return cp;
}

std::vector<std::uint64_t> producer_totals(const Checkpoint& cp) {
  std::vector<std::uint64_t> totals(cp.num_producers, 0);
  for (const auto& shard : cp.shards) {
    for (std::size_t p = 0; p < totals.size() && p < shard.watermarks.size();
         ++p) {
      totals[p] += shard.watermarks[p];
    }
  }
  return totals;
}

std::string checkpoint_file_name(std::uint64_t seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "checkpoint-%06llu.ckpt",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::uint64_t parse_checkpoint_seq(const std::string& file_name) {
  constexpr std::string_view kPrefix = "checkpoint-";
  constexpr std::string_view kSuffix = ".ckpt";
  if (file_name.size() <= kPrefix.size() + kSuffix.size()) return 0;
  if (file_name.compare(0, kPrefix.size(), kPrefix) != 0) return 0;
  if (file_name.compare(file_name.size() - kSuffix.size(), kSuffix.size(),
                        kSuffix) != 0) {
    return 0;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = kPrefix.size(); i < file_name.size() - kSuffix.size();
       ++i) {
    char c = file_name[i];
    if (c < '0' || c > '9') return 0;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

bool write_checkpoint(const std::string& dir, const Checkpoint& cp,
                      std::size_t keep) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  auto bytes = encode_checkpoint_file(cp);
  if (!storage::write_file_atomic(
          fs::path(dir) / checkpoint_file_name(cp.seq), bytes)) {
    return false;
  }
  prune_checkpoints(dir, keep == 0 ? 1 : keep);
  return true;
}

std::optional<LoadResult> load_latest_checkpoint(const std::string& dir) {
  LoadResult result;
  for (const auto& [seq, path] : list_checkpoints(dir)) {
    auto bytes = storage::read_file(path);
    if (bytes) {
      auto cp = decode_checkpoint_file(*bytes);
      if (cp) {
        result.checkpoint = std::move(*cp);
        return result;
      }
    }
    ++result.skipped_corrupt;
    util::Log(util::LogLevel::kWarn, "recovery")
        .msg("skipping invalid checkpoint file")
        .kv("file", path.filename().string());
  }
  return std::nullopt;
}

bool truncate_log(const std::string& dir, storage::DurablePos pos) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return pos.records == 0;
  bool saw_boundary_segment = false;
  std::vector<fs::path> to_delete;
  fs::path boundary;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::uint64_t seq =
        storage::parse_segment_seq(entry.path().filename().string());
    if (seq == 0) continue;
    if (seq > pos.seq) {
      to_delete.push_back(entry.path());
    } else if (seq == pos.seq) {
      saw_boundary_segment = true;
      boundary = entry.path();
    }
  }
  for (const fs::path& path : to_delete) fs::remove(path, ec);
  if (!saw_boundary_segment) {
    if (!to_delete.empty()) storage::sync_dir(dir);
    // The active segment is created lazily, so its absence is only
    // consistent with a position that claims no records in it.
    return pos.records == 0;
  }
  if (pos.records == 0) {
    fs::remove(boundary, ec);
    storage::sync_dir(dir);
    return !ec;
  }
  auto bytes = storage::read_file(boundary);
  if (!bytes || !storage::check_segment_header(*bytes)) return false;
  net::BufReader in(
      std::span<const std::uint8_t>(*bytes).subspan(
          storage::kSegmentHeaderBytes));
  std::uint64_t kept = 0;
  std::size_t end_off = 0;
  while (kept < pos.records) {
    auto event = storage::decode_record(in);
    if (!event) break;
    ++kept;
    end_off = in.pos();
  }
  // Fewer valid records on disk than the checkpoint's durable position
  // claims: the fsynced prefix itself is gone, which replay cannot
  // paper over.  Fail loudly instead of silently dropping closed events.
  if (kept < pos.records) return false;
  const std::size_t keep_bytes = storage::kSegmentHeaderBytes + end_off;
  if (keep_bytes == bytes->size()) {
    if (!to_delete.empty()) storage::sync_dir(dir);
    return true;  // already exactly the durable prefix (unsealed)
  }
  // Rewrite footer-less: SegmentWriter::open's torn-segment recovery
  // rescans and reseals on the next open.
  return storage::write_file_atomic(
      boundary, std::span<const std::uint8_t>(*bytes).first(keep_bytes));
}

}  // namespace bgpbh::recovery
