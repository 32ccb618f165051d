// Append-only segment log writer (the write half of the persistent
// event store — format.h documents the on-disk layout).
//
// One writer owns a store directory: it appends CRC-framed PeerEvent
// records to the active segment, accumulates the sparse time index in
// memory, and *seals* the segment (footer + trailer) when it exceeds
// the configured size or time span, rolling to the next sequence
// number.  Sealing is also when retention runs: oldest sealed segments
// are deleted until the directory fits the configured budget.
//
// Durability contract: everything appended before a sync() that
// returned true survives a crash (modulo fsync_on_seal for
// power-loss-grade durability); a crash mid-append loses at most the
// unsynced tail — recovery (recovery.h) truncates the torn record and
// reseals, so reopening the directory always yields a prefix of what
// was appended.  Single-threaded: callers serialize (storage::
// SpillWriter wraps one writer in a queue-fed thread).
#pragma once

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/events.h"
#include "net/bytes.h"
#include "storage/file_ops.h"
#include "storage/format.h"

namespace bgpbh::storage {

// A point in the log that is durable: every record of segments with
// sequence < seq, plus the first `records` records of segment `seq`,
// survive a crash.  Monotone over the writer's lifetime: seq only
// grows (seal and abandon both burn the sequence number) and records
// grows within one segment, resetting only when seq advances.
// Checkpoints stamp one of these so recovery knows exactly which log
// prefix the checkpoint covers (src/recovery/).
struct DurablePos {
  std::uint64_t seq = 0;
  std::uint64_t records = 0;
  friend bool operator==(const DurablePos&, const DurablePos&) = default;
};

class SegmentWriter {
 public:
  // Opens (creating if needed) `dir`.  Any torn active segment left by
  // a crashed writer is recovered and resealed first; appending then
  // continues in a fresh segment after the highest existing sequence
  // number.  Returns nullptr if the directory cannot be created or a
  // file cannot be opened.
  static std::unique_ptr<SegmentWriter> open(const std::string& dir,
                                             SegmentConfig config = {});
  ~SegmentWriter();

  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  // Appends one record to the active segment (opening it lazily),
  // sealing + rolling afterwards if the segment crossed a roll
  // threshold.  Returns false on I/O error — the active segment is
  // then ABANDONED: closed unsealed, truncated back to the synced
  // watermark (the last successful sync()), resealed in place over the
  // surviving prefix, and its sequence number burned, so a partial
  // write can never end up behind a CRC-valid footer AND a retry of
  // everything past events_committed() lands exactly once.  The next
  // append starts a fresh segment.
  bool append(const core::PeerEvent& event);
  bool append(std::span<const core::PeerEvent> events);

  // Flushes the active segment to the OS (the durability ack point;
  // fsync too when config.fsync_on_seal).  Records appended before a
  // successful sync() survive recovery byte-wise.
  bool sync();

  // Seals the active segment now (no-op when it is empty) and closes
  // the writer.  Idempotent; the destructor calls it.
  bool close();

  // ---- observability ----------------------------------------------------
  const std::string& dir() const { return dir_; }
  // Records accepted and still standing: an abandon rolls back the
  // unacked records it truncated off disk, so a caller retrying the
  // suffix past events_committed() never inflates this count.
  std::uint64_t events_appended() const { return events_appended_; }
  // Durability watermark: records by THIS writer that are past an ack
  // point (sync() returned true, or their segment sealed).  Advances
  // monotonically; after a failed append/sync the gap
  // events_appended() - events_committed() is exactly the suffix a
  // caller must retry, and retrying it can never duplicate (abandon
  // truncates the file back to this watermark).
  std::uint64_t events_committed() const { return events_committed_; }
  std::uint64_t segments_sealed() const { return segments_sealed_; }
  std::uint64_t segments_retired() const { return segments_retired_; }
  // Segments abandoned after an I/O error (their synced prefix was
  // rescued and resealed where possible).
  std::uint64_t segments_abandoned() const { return segments_abandoned_; }
  // errno captured at the most recent failed write/flush/sync; 0 if
  // none failed yet.
  int last_errno() const { return last_errno_; }
  // Sealed bytes currently on disk plus the active segment's.
  std::uint64_t bytes_on_disk() const;
  std::uint64_t active_seq() const { return next_seq_; }

  // The current durable log position (see DurablePos).  Records of the
  // active segment count only once acked by sync(); sealed segments
  // are fully covered because sealing advances next_seq_.
  DurablePos durable_pos() const { return {next_seq_, synced_records_}; }

  // Retention floor (src/recovery/): segments with sequence >= seq are
  // never retired, regardless of budget — the checkpoint coordinator
  // pins everything at or past the newest checkpoint's position so the
  // replay suffix stays on disk.  0 (the default) pins nothing.
  void set_retention_floor(std::uint64_t seq) { retention_floor_ = seq; }
  std::uint64_t retention_floor() const { return retention_floor_; }

 private:
  SegmentWriter(std::string dir, SegmentConfig config, std::uint64_t next_seq,
                std::vector<SegmentMeta> sealed);

  bool open_active();     // lazily creates the next segment file
  bool seal_active();     // footer + trailer + fclose + retention
  void abandon_active();  // I/O error: truncate to synced, burn the seq
  void apply_retention();

  std::string dir_;
  SegmentConfig config_;
  FileOps* ops_;  // config_.file_ops or the real pass-through

  std::FILE* file_ = nullptr;
  std::string active_path_;
  SegmentMeta active_;           // summary + index of the active segment
  IndexEntry block_;             // index block being accumulated
  std::uint64_t write_offset_ = 0;
  net::BufWriter record_;  // append()'s frame, reused across records
  // File offset / record count of the last successful sync() of the
  // active segment (0 = nothing acked yet); the offset is always a
  // record boundary, and the count is what an abandon rolls
  // events_appended_ back to.
  std::uint64_t synced_offset_ = 0;
  std::uint64_t synced_records_ = 0;

  std::uint64_t next_seq_ = 1;
  std::vector<SegmentMeta> sealed_;  // oldest first, for retention
  std::uint64_t events_appended_ = 0;
  std::uint64_t events_committed_ = 0;
  std::uint64_t segments_sealed_ = 0;
  std::uint64_t segments_retired_ = 0;
  std::uint64_t segments_abandoned_ = 0;
  std::uint64_t retention_floor_ = 0;
  int last_errno_ = 0;
  bool closed_ = false;
};

}  // namespace bgpbh::storage
