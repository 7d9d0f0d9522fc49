// On-disk tier shared by service::ArtifactCache and policy::PolicyStore:
// one file per 64-bit key, `<dir>/<hex16><extension>`. Writes go to a
// unique temp file followed by an atomic rename, so concurrent readers
// never see a torn file and a crash mid-write leaves only a stale .tmp.
// An entry the caller's decoder rejects is deleted and counted as a load
// failure, never served. The tier is an optimization, never a
// correctness dependency: I/O errors are counted or swallowed, not thrown.
#pragma once

#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>

namespace grover {

/// `path` + ".tmp" + 16 hex digits, unique per call across threads and
/// processes. Write there, then rename onto `path`.
[[nodiscard]] std::string uniqueTempPath(const std::string& path);

class DiskTier {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t failures = 0;  // unreadable or corrupt entries
    std::uint64_t stores = 0;
  };

  /// Creates `dir` if needed; an empty `dir` disables the tier.
  DiskTier(std::string dir, std::string extension);

  /// File of a key ("" when the tier is disabled).
  [[nodiscard]] std::string path(std::uint64_t key) const;

  /// Read the entry of `key` and decode it. nullopt when the tier is
  /// disabled, on a missing file (a miss), an unreadable one (a failure),
  /// and when `decode` throws: the corrupt file is then deleted and
  /// counted as a failure.
  template <typename Decode>
  [[nodiscard]] auto load(std::uint64_t key, Decode&& decode)
      -> std::optional<std::invoke_result_t<Decode, std::string>> {
    std::optional<std::string> text = read(key);
    if (!text.has_value()) return std::nullopt;
    try {
      auto value = decode(std::move(*text));
      count(&Stats::hits);
      return value;
    } catch (const std::exception&) {
      dropCorrupt(key);
      return std::nullopt;
    }
  }

  /// Atomically replace the entry of `key` with `payload`; a no-op when
  /// the tier is disabled. Only completed writes count as stores.
  void write(std::uint64_t key, const std::string& payload);

  [[nodiscard]] Stats stats() const;

 private:
  [[nodiscard]] std::optional<std::string> read(std::uint64_t key);
  void dropCorrupt(std::uint64_t key);
  void count(std::uint64_t Stats::*counter);

  std::string dir_;
  std::string extension_;
  mutable std::mutex mutex_;
  Stats stats_;
};

}  // namespace grover
