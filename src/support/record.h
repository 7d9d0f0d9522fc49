// The line-oriented record format of the on-disk tiers (support/disk_tier.h):
//   <magic>                          e.g. "groverart 2", "groverpol 2"
//   key <hex16>
//   i <name> <integer>
//   b <name> <u64 bit pattern>      (doubles, bit-exact)
//   s <name> <len>\n<len raw bytes>\n
//   end
// Fields are read back in the order they were written; each store's codec
// defines its field list. The reader is strict: any deviation throws
// GroverError, which DiskTier::load treats as a corrupt entry.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

namespace grover {

class RecordWriter {
 public:
  /// Writes the magic line and the key line.
  RecordWriter(const std::string& magic, std::uint64_t key);

  void num(const char* name, std::int64_t v);
  void bits(const char* name, double v);
  void str(const char* name, const std::string& s);

  /// Appends the "end" line and returns the record.
  [[nodiscard]] std::string finish();

 private:
  std::ostringstream os_;
};

class RecordReader {
 public:
  /// Checks the magic line and that the record belongs to `key`.
  RecordReader(std::string text, const std::string& magic, std::uint64_t key);

  [[nodiscard]] std::int64_t num(const char* name);
  [[nodiscard]] double bits(const char* name);
  [[nodiscard]] std::string str(const char* name);

  /// An integer field holding an enumerator in [0, last].
  template <typename E>
  [[nodiscard]] E enumerator(const char* name, E last) {
    const std::int64_t v = num(name);
    if (v < 0 || v > static_cast<std::int64_t>(last)) badValue(name);
    return static_cast<E>(v);
  }

  /// Expects the "end" line.
  void finish();

 private:
  std::string line();
  void expectLine(const std::string& want);
  [[noreturn]] static void badValue(const char* name);

  std::string text_;
  std::size_t pos_ = 0;
};

}  // namespace grover
