// WireLog: the encoded sub-updates of one fabric lane, back to back in
// one contiguous byte buffer, indexed from base().
//
// FabricRouter encodes each sub-update once, straight into append()'s
// writer, and reads an APPEND frame's payload as the byte range of
// consecutive entries — for the first send and for every resend after
// a reconnect, so the log is the lane's replay source too.
// drop_before() retires the entries a server reported durable by
// advancing a head index; the dead prefix is cut off only once it is
// at least half the buffer, so each live byte moves O(1) times
// amortized.  Both buffers keep their capacity, so a warm log appends
// without allocating.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/bytes.h"

namespace bgpbh::fabric {

class WireLog {
 public:
  // Opens entry end(); the caller writes its bytes into the returned
  // writer before the next append().
  net::BufWriter& append() {
    starts_.push_back(bytes_.size());
    return bytes_;
  }

  std::uint64_t base() const { return base_; }  // first live entry
  std::uint64_t end() const { return base_ + (starts_.size() - head_); }

  // Bytes of entries [from, to); requires base() <= from <= to <= end().
  std::span<const std::uint8_t> range(std::uint64_t from,
                                      std::uint64_t to) const {
    const std::size_t first = offset(from);
    return std::span(bytes_.data()).subspan(first, offset(to) - first);
  }

  // Retires every entry below `index` (at most up to end()).
  void drop_before(std::uint64_t index) {
    index = std::min(index, end());
    if (index <= base_) return;
    head_ += static_cast<std::size_t>(index - base_);
    base_ = index;
    const std::size_t dead = offset(base_);
    if (dead * 2 < bytes_.size()) return;
    bytes_.erase_front(dead);
    starts_.erase(starts_.begin(),
                  starts_.begin() + static_cast<std::ptrdiff_t>(head_));
    for (std::size_t& start : starts_) start -= dead;
    head_ = 0;
  }

  // Buffer size, dead prefix included.
  std::size_t size_bytes() const { return bytes_.size(); }
  std::size_t capacity_bytes() const { return bytes_.data().capacity(); }

 private:
  // Byte offset where entry `index` starts (the buffer size for end()).
  std::size_t offset(std::uint64_t index) const {
    const std::size_t pos = head_ + static_cast<std::size_t>(index - base_);
    return pos < starts_.size() ? starts_[pos] : bytes_.size();
  }

  net::BufWriter bytes_;
  std::vector<std::size_t> starts_;  // entry base_ + k starts at [head_ + k]
  std::size_t head_ = 0;
  std::uint64_t base_ = 0;
};

}  // namespace bgpbh::fabric
