#include "support/record.h"

#include <cstdio>
#include <cstring>

#include "support/diagnostics.h"
#include "support/hash.h"

namespace grover {

RecordWriter::RecordWriter(const std::string& magic, std::uint64_t key) {
  os_ << magic << "\n" << "key " << toHex64(key) << "\n";
}

void RecordWriter::num(const char* name, std::int64_t v) {
  os_ << "i " << name << " " << v << "\n";
}

void RecordWriter::bits(const char* name, double v) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(v));
  std::memcpy(&u, &v, sizeof(u));
  os_ << "b " << name << " " << u << "\n";
}

void RecordWriter::str(const char* name, const std::string& s) {
  os_ << "s " << name << " " << s.size() << "\n" << s << "\n";
}

std::string RecordWriter::finish() {
  os_ << "end\n";
  return os_.str();
}

RecordReader::RecordReader(std::string text, const std::string& magic,
                           std::uint64_t key)
    : text_(std::move(text)) {
  expectLine(magic);
  expectLine("key " + toHex64(key));
}

std::string RecordReader::line() {
  const std::size_t nl = text_.find('\n', pos_);
  if (nl == std::string::npos) throw GroverError("record: truncated");
  std::string out = text_.substr(pos_, nl - pos_);
  pos_ = nl + 1;
  return out;
}

void RecordReader::expectLine(const std::string& want) {
  if (line() != want) throw GroverError("record: expected '" + want + "'");
}

std::int64_t RecordReader::num(const char* name) {
  const std::string l = line();
  long long v = 0;
  if (std::sscanf(l.c_str(), ("i " + std::string(name) + " %lld").c_str(),
                  &v) != 1) {
    throw GroverError("record: expected int field " + std::string(name));
  }
  return v;
}

double RecordReader::bits(const char* name) {
  const std::string l = line();
  unsigned long long u = 0;
  if (std::sscanf(l.c_str(), ("b " + std::string(name) + " %llu").c_str(),
                  &u) != 1) {
    throw GroverError("record: expected bits field " + std::string(name));
  }
  double v = 0;
  const std::uint64_t u64 = u;
  std::memcpy(&v, &u64, sizeof(v));
  return v;
}

std::string RecordReader::str(const char* name) {
  const std::string l = line();
  unsigned long long len = 0;
  if (std::sscanf(l.c_str(), ("s " + std::string(name) + " %llu").c_str(),
                  &len) != 1) {
    throw GroverError("record: expected string field " + std::string(name));
  }
  // pos_ <= size() always; compare against the remainder so a huge
  // claimed length cannot wrap the bound.
  if (len >= text_.size() - pos_ || text_[pos_ + len] != '\n') {
    throw GroverError("record: bad string length for " + std::string(name));
  }
  std::string out = text_.substr(pos_, len);
  pos_ += len + 1;
  return out;
}

void RecordReader::finish() { expectLine("end"); }

void RecordReader::badValue(const char* name) {
  throw GroverError("record: bad value for " + std::string(name));
}

}  // namespace grover
