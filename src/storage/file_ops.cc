#include "storage/file_ops.h"

#include <fcntl.h>
#include <unistd.h>

namespace bgpbh::storage {

std::size_t FileOps::write(const void* data, std::size_t bytes,
                           std::FILE* file) {
  return std::fwrite(data, 1, bytes, file);
}

bool FileOps::flush(std::FILE* file) { return std::fflush(file) == 0; }

bool FileOps::sync(int fd) { return ::fsync(fd) == 0; }

FileOps& real_file_ops() {
  static FileOps ops;
  return ops;
}

bool sync_dir(const std::filesystem::path& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

bool write_file_atomic(const std::filesystem::path& final_path,
                       std::span<const std::uint8_t> bytes) {
  namespace fs = std::filesystem;
  fs::path tmp = final_path;
  tmp += ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  std::error_code ec;
  if (!ok) {
    fs::remove(tmp, ec);
    return false;
  }
  fs::rename(tmp, final_path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return sync_dir(final_path.parent_path());
}

std::optional<std::vector<std::uint8_t>> read_file(
    const std::filesystem::path& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return std::nullopt;
  }
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  bool ok = bytes.empty() ||
            std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  if (!ok) return std::nullopt;
  return bytes;
}

}  // namespace bgpbh::storage
