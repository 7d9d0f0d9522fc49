#include "native/jit.h"

#include <dlfcn.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "native/lower.h"
#include "support/disk_tier.h"
#include "support/hash.h"
#include "support/str.h"

namespace grover::native {

namespace fs = std::filesystem;

namespace {

std::string shellQuote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

/// True when `compiler` exists and answers --version.
bool probeCompiler(const std::string& compiler) {
  const std::string cmd =
      shellQuote(compiler) + " --version >/dev/null 2>&1";
  return std::system(cmd.c_str()) == 0;  // NOLINT
}

std::string readFileQuietly(const fs::path& path, std::size_t maxBytes) {
  std::ifstream in(path);
  if (!in) return {};
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (text.size() > maxBytes) text.resize(maxBytes);
  return text;
}

}  // namespace

LoadedObject::LoadedObject(void* handle, void* symbol, std::string path)
    : handle_(handle), symbol_(symbol), path_(std::move(path)) {}

LoadedObject::~LoadedObject() {
  if (handle_ != nullptr) dlclose(handle_);
}

JitCompiler::JitCompiler(JitOptions options) {
  const char* disable = std::getenv("GROVER_NATIVE_DISABLE");
  if (disable != nullptr && disable[0] != '\0' &&
      !(disable[0] == '0' && disable[1] == '\0')) {
    unavailable_reason_ = "disabled by GROVER_NATIVE_DISABLE";
    return;
  }

  std::string compiler = options.compiler;
  if (compiler.empty()) {
    const char* env = std::getenv("GROVER_NATIVE_CC");
    if (env != nullptr && env[0] != '\0') compiler = env;
  }
  if (!compiler.empty()) {
    if (!probeCompiler(compiler)) {
      unavailable_reason_ =
          cat("compiler '", compiler, "' not usable (--version failed)");
      return;
    }
    compiler_ = compiler;
  } else {
    for (const char* candidate : {"cc", "gcc", "clang"}) {
      if (probeCompiler(candidate)) {
        compiler_ = candidate;
        break;
      }
    }
    if (compiler_.empty()) {
      unavailable_reason_ = "no system C compiler found (tried cc/gcc/clang)";
      return;
    }
  }

  fs::path dir = options.cacheDir.empty()
                     ? fs::temp_directory_path() / "grover-native-cache"
                     : fs::path(options.cacheDir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    unavailable_reason_ =
        cat("cannot create cache dir ", dir.string(), ": ", ec.message());
    return;
  }
  cache_dir_ = dir.string();
  available_ = true;
}

JitStats JitCompiler::stats() const {
  JitStats s;
  s.compiles = compiles_;
  s.cacheHits = cache_hits_;
  s.compileMs = compile_ms_;
  return s;
}

std::shared_ptr<LoadedObject> JitCompiler::compile(
    const std::string& cSource, const std::string& symbol,
    std::string& reason) {
  if (!available_) {
    reason = unavailable_reason_;
    return nullptr;
  }

  Fnv1a hasher;
  hasher.update(cSource);
  hasher.update(compiler_);
  hasher.update(std::string_view(kRequiredCFlags));
  const std::string stem = "native_" + toHex64(hasher.digest());
  const fs::path dir(cache_dir_);
  const fs::path soPath = dir / (stem + ".so");

  std::error_code ec;
  if (!fs::exists(soPath, ec)) {
    // The source, the compiler log and the object share one unique temp
    // stem, so concurrent builders of the same key (threads or processes
    // sharing the cache directory) never touch each other's files. They
    // race only on the final rename, where either identical object wins.
    const std::string tmpStem = uniqueTempPath((dir / stem).string());
    const fs::path cPath = tmpStem + ".c";
    const fs::path errPath = tmpStem + ".err";
    const fs::path tmpPath = tmpStem + ".so";
    {
      std::ofstream out(cPath, std::ios::trunc);
      if (!out) {
        reason = cat("cannot write ", cPath.string());
        return nullptr;
      }
      out << cSource;
    }
    const std::string cmd =
        cat(shellQuote(compiler_), " ", kRequiredCFlags, " -o ",
            shellQuote(tmpPath.string()), " ", shellQuote(cPath.string()),
            " -lm 2> ", shellQuote(errPath.string()));
    const auto t0 = std::chrono::steady_clock::now();
    const int rc = std::system(cmd.c_str());  // NOLINT
    compile_ms_ += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    if (rc != 0) {
      reason = cat("native compile failed (", compiler_, " exit ", rc, "): ",
                   readFileQuietly(errPath, 512));
    }
    fs::remove(cPath, ec);
    fs::remove(errPath, ec);
    if (rc != 0) {
      fs::remove(tmpPath, ec);
      return nullptr;
    }
    ++compiles_;
    fs::rename(tmpPath, soPath, ec);
    if (ec && !fs::exists(soPath)) {
      reason = cat("cannot install ", soPath.string(), ": ", ec.message());
      return nullptr;
    }
  } else {
    ++cache_hits_;
  }

  void* handle = dlopen(soPath.string().c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = dlerror();
    reason = cat("dlopen failed: ", err != nullptr ? err : "unknown error");
    return nullptr;
  }
  void* sym = dlsym(handle, symbol.c_str());
  if (sym == nullptr) {
    const char* err = dlerror();
    reason = cat("dlsym('", symbol,
                 "') failed: ", err != nullptr ? err : "unknown error");
    dlclose(handle);
    return nullptr;
  }
  return std::make_shared<LoadedObject>(handle, sym, soPath.string());
}

}  // namespace grover::native
