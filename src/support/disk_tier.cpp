#include "support/disk_tier.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "support/hash.h"

namespace grover {

std::string uniqueTempPath(const std::string& path) {
  static std::atomic<std::uint64_t> tmpCounter{0};
  Fnv1a tag;
  tag.update(static_cast<std::uint64_t>(::getpid()));
  tag.update(static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id())));
  tag.update(static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(&tmpCounter)));  // per-process (ASLR)
  tag.update(tmpCounter.fetch_add(1));
  return path + ".tmp" + toHex64(tag.digest());
}

DiskTier::DiskTier(std::string dir, std::string extension)
    : dir_(std::move(dir)), extension_(std::move(extension)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
  }
}

std::string DiskTier::path(std::uint64_t key) const {
  if (dir_.empty()) return {};
  return dir_ + "/" + toHex64(key) + extension_;
}

std::optional<std::string> DiskTier::read(std::uint64_t key) {
  const std::string file = path(key);
  if (file.empty()) return std::nullopt;
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    count(&Stats::misses);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    count(&Stats::failures);
    return std::nullopt;
  }
  return buf.str();
}

void DiskTier::dropCorrupt(std::uint64_t key) {
  // Delete so the recomputed value can replace it.
  std::error_code ec;
  std::filesystem::remove(path(key), ec);
  count(&Stats::failures);
}

void DiskTier::write(std::uint64_t key, const std::string& payload) {
  const std::string file = path(key);
  if (file.empty()) return;
  // Unique per write, not just per key: several threads or processes may
  // rewrite the same key at once.
  const std::string tmp = uniqueTempPath(file);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << payload;
    out.flush();
    if (!out.good()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, file, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  count(&Stats::stores);
}

void DiskTier::count(std::uint64_t Stats::*counter) {
  std::lock_guard lock(mutex_);
  ++(stats_.*counter);
}

DiskTier::Stats DiskTier::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace grover
