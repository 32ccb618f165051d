// FileOps: the indirection between SegmentWriter and the C file API.
//
// The base class IS the real implementation (fwrite/fflush/fsync);
// fault::FaultyFileOps overrides it to inject EIO / ENOSPC / short
// writes on a deterministic schedule, which is how the recovery paths
// in SegmentWriter and SpillWriter are exercised without a real bad
// disk.  Only the buffered-write / flush / sync calls go through the
// seam — open/close/remove stay direct, because the failure modes
// worth testing are the ones that can tear or lose acked data.
//
// Cost when injection is off: one virtual call per *chunk-sized*
// write on the spill writer thread — nothing on the ingest hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <span>
#include <vector>

namespace bgpbh::storage {

class FileOps {
 public:
  virtual ~FileOps() = default;

  // fwrite(): bytes actually written; == `bytes` on success.  On
  // failure errno describes the cause.
  virtual std::size_t write(const void* data, std::size_t bytes,
                            std::FILE* file);

  // fflush(): true on success.
  virtual bool flush(std::FILE* file);

  // fsync(): true on success.
  virtual bool sync(int fd);
};

// The shared pass-through instance used when SegmentConfig::file_ops
// is null.
FileOps& real_file_ops();

// Whole-file helpers for small state files (checkpoints, fabric slot
// handoff), outside the FileOps seam.
//
// fsync()s a directory, making the entries created or renamed in it
// durable.
bool sync_dir(const std::filesystem::path& dir);

// Durable whole-file write: tmp + fsync + rename + dir fsync.  A crash
// at any point leaves either the old file or the new one, never a torn
// mix visible under the final name.
bool write_file_atomic(const std::filesystem::path& final_path,
                       std::span<const std::uint8_t> bytes);

// The whole file, or nullopt if it cannot be opened or read.
std::optional<std::vector<std::uint8_t>> read_file(
    const std::filesystem::path& path);

}  // namespace bgpbh::storage
