// AS_PATH attribute.
//
// We model AS_SEQUENCE only (AS_SET is obsolete and irrelevant to the
// inference: the paper removes prepending and scans for provider ASNs,
// both of which are sequence operations).  Paths are stored collector-
// side first: path[0] is the collector peer AS, path.back() the origin.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace bgpbh::bgp {

using Asn = std::uint32_t;

class AsPath {
 public:
  AsPath() = default;
  explicit AsPath(std::vector<Asn> hops) : hops_(std::move(hops)) {}

  static AsPath of(std::initializer_list<Asn> hops) {
    return AsPath(std::vector<Asn>(hops));
  }

  const std::vector<Asn>& hops() const { return hops_; }
  bool empty() const { return hops_.empty(); }
  std::size_t length() const { return hops_.size(); }

  Asn first() const { return hops_.front(); }   // collector peer AS
  Asn origin() const { return hops_.back(); }   // originating AS

  bool contains(Asn asn) const;

  // Path with consecutive duplicates collapsed (prepending removed), as
  // required before inferring the blackholing user (§4.2).
  AsPath without_prepending() const;

  // Number of unique AS hops (after removing prepending).  In-place
  // scan; never materializes the prepending-free path.
  std::size_t unique_length() const;

  // Index of `asn` in the prepending-free path, or nullopt.  In-place
  // scan over the raw hops (the inference hot path calls this per
  // candidate provider; it must not allocate).
  std::optional<std::size_t> index_of(Asn asn) const;

  // The AS one hop before `asn` on the prepending-free path (i.e.
  // closer to the origin) — the blackholing-user position per §4.2.
  // In-place scan, allocation-free.
  std::optional<Asn> hop_before(Asn asn) const;

  void prepend(Asn asn, std::size_t times = 1);
  void push_origin(Asn asn) { hops_.push_back(asn); }
  // Empties the path but keeps its storage, so a decoder refilling one
  // scratch path with clear() + push_origin() stops allocating.
  void clear() { hops_.clear(); }

  std::string to_string() const;  // "3356 1299 64500"

  friend bool operator==(const AsPath&, const AsPath&) = default;

 private:
  std::vector<Asn> hops_;
};

}  // namespace bgpbh::bgp
