#include "storage/segment_writer.h"

#include <algorithm>
#include <cerrno>
#include <filesystem>

#include <unistd.h>

#include "storage/record_codec.h"
#include "storage/recovery.h"

namespace bgpbh::storage {

namespace fs = std::filesystem;

std::unique_ptr<SegmentWriter> SegmentWriter::open(const std::string& dir,
                                                   SegmentConfig config) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec && !fs::is_directory(dir)) return nullptr;
  // Existing segments, sequence order: recover-and-reseal any torn one
  // (crashed writer), and account them all for retention.
  std::vector<std::pair<std::uint64_t, std::string>> existing;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    std::uint64_t seq = parse_segment_seq(entry.path().filename().string());
    if (seq != 0) existing.emplace_back(seq, entry.path().string());
  }
  std::sort(existing.begin(), existing.end());
  std::vector<SegmentMeta> sealed;
  std::uint64_t next_seq = 1;
  for (const auto& [seq, path] : existing) {
    next_seq = std::max(next_seq, seq + 1);
    RecoveryResult recovered = recover_segment(path);
    if (recovered.ok) sealed.push_back(recovered.meta);
    // Unrecoverable files are left alone and simply not accounted.
  }
  return std::unique_ptr<SegmentWriter>(
      new SegmentWriter(dir, std::move(config), next_seq, std::move(sealed)));
}

SegmentWriter::SegmentWriter(std::string dir, SegmentConfig config,
                             std::uint64_t next_seq,
                             std::vector<SegmentMeta> sealed)
    : dir_(std::move(dir)),
      config_(std::move(config)),
      ops_(config_.file_ops ? config_.file_ops : &real_file_ops()),
      next_seq_(next_seq),
      sealed_(std::move(sealed)) {
  if (config_.index_block_records == 0) config_.index_block_records = 64;
}

SegmentWriter::~SegmentWriter() { close(); }

bool SegmentWriter::open_active() {
  active_path_ = (fs::path(dir_) / segment_file_name(next_seq_)).string();
  file_ = std::fopen(active_path_.c_str(), "wb");
  if (!file_) {
    last_errno_ = errno;
    return false;
  }
  net::BufWriter header;
  encode_segment_header(header);
  if (ops_->write(header.data().data(), header.size(), file_) !=
      header.size()) {
    // Header-only file: safe to remove and reuse the sequence number
    // (no records were acked under it).
    last_errno_ = errno;
    std::fclose(file_);
    file_ = nullptr;
    std::error_code ec;
    fs::remove(active_path_, ec);
    return false;
  }
  write_offset_ = kSegmentHeaderBytes;
  synced_offset_ = 0;
  synced_records_ = 0;
  active_ = SegmentMeta{};
  active_.seq = next_seq_;
  block_ = IndexEntry{};
  return true;
}

void SegmentWriter::abandon_active() {
  // A partial record may be on disk, and fclose() flushes whatever
  // stdio still buffered — possibly records whose write the caller was
  // told FAILED.  Never write a footer over any of it (a CRC-valid
  // footer with a misaligned index would defeat recovery).  Instead:
  // close as-is, truncate back to the synced watermark so the file
  // holds exactly the acked prefix, reseal that prefix in place, and
  // burn the sequence number.  Truncation is what makes a caller-side
  // retry of the unacked suffix exactly-once; reopening the same seq
  // with "wb" would instead destroy the acked records in the file.
  if (file_) {
    std::fclose(file_);
    file_ = nullptr;
  }
  ++segments_abandoned_;
  // The records past the synced watermark are about to be truncated
  // off disk: roll them out of events_appended_ too, so a caller
  // re-appending the suffix past events_committed() keeps the count
  // exact (each distinct record counted once).
  events_appended_ -= active_.record_count - synced_records_;
  std::error_code ec;
  if (synced_offset_ > kSegmentHeaderBytes) {
    fs::resize_file(active_path_, synced_offset_, ec);
    if (!ec) {
      RecoveryResult healed = recover_segment(active_path_);
      if (healed.ok && healed.records > 0) sealed_.push_back(healed.meta);
    }
    // If the truncate itself failed (not an injectable fault — the
    // disk is truly gone), the torn file stays; the next directory
    // open recovers its intact prefix instead.
  } else {
    // Nothing acked in this segment: drop the file entirely.
    fs::remove(active_path_, ec);
  }
  ++next_seq_;
  synced_offset_ = 0;
  synced_records_ = 0;
}

bool SegmentWriter::append(const core::PeerEvent& event) {
  if (closed_) return false;
  if (!file_ && !open_active()) return false;
  record_.clear();
  encode_record(event, record_);
  if (ops_->write(record_.data().data(), record_.size(), file_) !=
      record_.size()) {
    last_errno_ = errno;
    abandon_active();
    return false;
  }
  if (block_.records == 0) {
    block_.offset = write_offset_;
    block_.min_start = event.start;
    block_.max_end = event.end;
  } else {
    block_.min_start = std::min(block_.min_start, event.start);
    block_.max_end = std::max(block_.max_end, event.end);
  }
  ++block_.records;
  if (active_.record_count == 0) {
    active_.min_start = event.start;
    active_.max_end = event.end;
  } else {
    active_.min_start = std::min(active_.min_start, event.start);
    active_.max_end = std::max(active_.max_end, event.end);
  }
  ++active_.record_count;
  write_offset_ += record_.size();
  ++events_appended_;
  if (block_.records >= config_.index_block_records) {
    active_.index.push_back(block_);
    block_ = IndexEntry{};
  }
  // Roll thresholds: size always, time span when configured.
  bool roll = write_offset_ >= config_.max_segment_bytes;
  if (config_.max_segment_span > 0 &&
      active_.max_end - active_.min_start >= config_.max_segment_span) {
    roll = true;
  }
  if (roll) return seal_active();
  return true;
}

bool SegmentWriter::append(std::span<const core::PeerEvent> events) {
  for (const auto& event : events) {
    if (!append(event)) return false;
  }
  return true;
}

bool SegmentWriter::sync() {
  if (!file_) return true;
  if (!ops_->flush(file_) ||
      (config_.fsync_on_seal && !ops_->sync(::fileno(file_)))) {
    last_errno_ = errno;
    abandon_active();
    return false;
  }
  synced_offset_ = write_offset_;
  synced_records_ = active_.record_count;
  events_committed_ = events_appended_;
  return true;
}

bool SegmentWriter::seal_active() {
  if (!file_) return true;
  if (block_.records > 0) {
    active_.index.push_back(block_);
    block_ = IndexEntry{};
  }
  if (active_.record_count == 0) {
    // Nothing was appended: drop the header-only file instead of
    // leaving an empty segment behind.
    std::fclose(file_);
    file_ = nullptr;
    std::error_code ec;
    fs::remove(active_path_, ec);
    synced_offset_ = 0;
    return true;
  }
  active_.sealed = true;
  net::BufWriter footer;
  encode_footer(active_, footer);
  bool ok = ops_->write(footer.data().data(), footer.size(), file_) ==
            footer.size();
  ok = ops_->flush(file_) && ok;
  if (config_.fsync_on_seal) ok = ops_->sync(::fileno(file_)) && ok;
  if (ok) {
    ok = std::fclose(file_) == 0;
    file_ = nullptr;
  }
  if (!ok) {
    // The footer may be partial (or, after a failed close, of unknown
    // durability): fall back to the abandon path, which truncates the
    // file to the synced record prefix and reseals just that, keeping
    // caller-side retries exactly-once.
    last_errno_ = errno;
    active_.sealed = false;
    abandon_active();
    return false;
  }
  active_.file_bytes = write_offset_ + footer.size();
  sealed_.push_back(active_);
  ++segments_sealed_;
  events_committed_ = events_appended_;
  synced_offset_ = 0;
  synced_records_ = 0;
  ++next_seq_;
  apply_retention();
  return true;
}

void SegmentWriter::apply_retention() {
  if (config_.retain_max_bytes == 0 && config_.retain_max_segments == 0) {
    return;
  }
  auto over_budget = [&] {
    if (config_.retain_max_segments > 0 &&
        sealed_.size() > config_.retain_max_segments) {
      return true;
    }
    if (config_.retain_max_bytes > 0) {
      std::uint64_t total = 0;
      for (const auto& meta : sealed_) total += meta.file_bytes;
      return total > config_.retain_max_bytes;
    }
    return false;
  };
  // Oldest first; never below one segment (the data just sealed), and
  // never at or past the retention floor — a checkpoint may still need
  // that suffix of the log for crash replay (src/recovery/).
  while (sealed_.size() > 1 && over_budget()) {
    if (retention_floor_ > 0 && sealed_.front().seq >= retention_floor_) break;
    std::error_code ec;
    fs::remove(fs::path(dir_) / segment_file_name(sealed_.front().seq), ec);
    sealed_.erase(sealed_.begin());
    ++segments_retired_;
  }
}

bool SegmentWriter::close() {
  if (closed_) return true;
  closed_ = true;
  return seal_active();
}

std::uint64_t SegmentWriter::bytes_on_disk() const {
  std::uint64_t total = file_ ? write_offset_ : 0;
  for (const auto& meta : sealed_) total += meta.file_bytes;
  return total;
}

}  // namespace bgpbh::storage
