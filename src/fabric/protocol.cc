#include "fabric/protocol.h"

#include "bgp/update.h"
#include "storage/record_codec.h"

namespace bgpbh::fabric {

void make_sub_update(const routing::FeedUpdate& fu, stream::SubKind kind,
                     std::uint32_t prefix_index, std::uint64_t ingest_ns,
                     routing::FeedUpdate& sub) {
  sub.platform = fu.platform;
  sub.update.time = fu.update.time;
  sub.update.peer_ip = fu.update.peer_ip;
  sub.update.peer_asn = fu.update.peer_asn;
  sub.update.collector_id = fu.update.collector_id;
  sub.ingest_ns = ingest_ns;
  const bgp::UpdateBody& body = fu.update.body;
  bgp::UpdateBody& out = sub.update.body;
  if (kind == stream::SubKind::kWithdraw) {
    out.withdrawn.assign(1, body.withdrawn[prefix_index]);
    out.announced.clear();
    out.as_path.clear();
    out.communities.clear();
    out.next_hop.reset();
    out.origin = bgp::Origin::kIgp;
  } else {
    out.withdrawn.clear();
    out.announced.assign(1, body.announced[prefix_index]);
    out.as_path = body.as_path;
    out.communities = body.communities;
    out.next_hop = body.next_hop;
    out.origin = body.origin;
  }
}

void encode_sub_update(const routing::FeedUpdate& fu, net::BufWriter& out) {
  out.u8(static_cast<std::uint8_t>(fu.platform));
  out.u64(static_cast<std::uint64_t>(fu.update.time));
  storage::encode_ip(fu.update.peer_ip, out);
  out.u32(fu.update.peer_asn);
  out.u32(fu.update.collector_id);
  // The UPDATE body codec treats "rest of input" as NLRI, so it needs
  // an explicit length prefix to know where this sub-update ends; it
  // is patched once the body is written.
  const std::size_t len_pos = out.size();
  out.u32(0);
  bgp::encode_update_body(fu.update.body, out);
  out.patch_u32(len_pos, static_cast<std::uint32_t>(out.size() - len_pos - 4));
  out.u64(fu.ingest_ns);
}

bool decode_sub_update_into(net::BufReader& in, routing::FeedUpdate& fu) {
  std::uint8_t platform = in.u8();
  if (platform >= routing::kNumPlatforms) return false;
  fu.platform = static_cast<routing::Platform>(platform);
  fu.update.time = static_cast<util::SimTime>(in.u64());
  auto peer_ip = storage::decode_ip(in);
  if (!peer_ip) return false;
  fu.update.peer_ip = *peer_ip;
  fu.update.peer_asn = in.u32();
  fu.update.collector_id = in.u32();
  std::uint32_t body_len = in.u32();
  if (!in.ok() || body_len > in.remaining()) return false;
  net::BufReader body = in.sub(body_len);
  if (!bgp::decode_update_body_into(body, fu.update.body) || !body.at_end()) {
    return false;
  }
  fu.ingest_ns = in.u64();
  return in.ok();
}

std::optional<routing::FeedUpdate> decode_sub_update(net::BufReader& in) {
  routing::FeedUpdate fu;
  if (!decode_sub_update_into(in, fu)) return std::nullopt;
  return fu;
}

void encode_files(const std::vector<HandoffFile>& files, net::BufWriter& out) {
  out.u32(static_cast<std::uint32_t>(files.size()));
  for (const auto& f : files) {
    out.u16(static_cast<std::uint16_t>(f.name.size()));
    out.str(f.name);
    out.u32(static_cast<std::uint32_t>(f.bytes.size()));
    out.bytes(f.bytes);
  }
}

std::optional<std::vector<HandoffFile>> decode_files(net::BufReader& in) {
  std::uint32_t n = in.u32();
  if (!in.ok() || n > 100000) return std::nullopt;
  std::vector<HandoffFile> files;
  files.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    HandoffFile f;
    std::uint16_t name_len = in.u16();
    auto name = in.bytes(name_len);
    if (!in.ok()) return std::nullopt;
    f.name.assign(name.begin(), name.end());
    // Reject path separators: a handoff file name is installed verbatim
    // under the target's slot directory and must never escape it.
    if (f.name.empty() || f.name.find('/') != std::string::npos ||
        f.name.find("..") != std::string::npos) {
      return std::nullopt;
    }
    std::uint32_t len = in.u32();
    if (!in.ok() || len > in.remaining()) return std::nullopt;
    auto bytes = in.bytes(len);
    f.bytes.assign(bytes.begin(), bytes.end());
    files.push_back(std::move(f));
  }
  return files;
}

}  // namespace bgpbh::fabric
