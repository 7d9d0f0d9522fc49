// Shared declarations of the perfbench program: workload inputs, the
// expected-verdict file, latency statistics, span tracing and the result
// block every workload fills. See perfbench/README.md for the metric
// definitions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/app.h"
#include "net/server.h"
#include "service/compile_service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line options of one benchmark invocation.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Fresh per-invocation scratch root; every temp directory the run
  /// creates (policy store, artifact disk tier, JIT cache) lives below it.
  std::string workDir;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string traceOut;
  /// The expected-verdict file (perfbench/expected_verdicts.txt).
  std::string expected;
  /// Maintenance mode: recompute the expected verdicts into this path.
  std::string recordExpected;
};

/// Deterministic generator for every seeded choice (splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// One (application, platform, scale) input: a line of the serve-batch
/// grammar and the service request it stands for.
struct Key {
  std::string app;
  std::string platform;
  grover::apps::Scale scale = grover::apps::Scale::Test;

  [[nodiscard]] std::string line() const;
  [[nodiscard]] grover::service::Request request(bool prove) const;
};

/// The 11 Fig. 10 apps x 6 platform models (3 cache-only, 3 GPU).
[[nodiscard]] std::vector<Key> allKeys(grover::apps::Scale scale);

/// What a cold decision must come back as for one key.
struct Verdict {
  std::string outcome;  // gain / loss / similar
  std::string variant;  // with-local-memory / without-local-memory
};

/// key.line() -> verdict, loaded from the expected-verdict file.
using ExpectedVerdicts = std::map<std::string, Verdict>;
[[nodiscard]] ExpectedVerdicts loadExpected(const std::string& path);

/// Nearest-rank percentiles of a sample, in its unit.
struct Percentiles {
  std::size_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};
[[nodiscard]] Percentiles percentiles(const std::vector<double>& samples);
/// Nearest-rank quantile `q` (0..1] of a sample.
[[nodiscard]] double nearestRank(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> v);

/// In-memory span recorder. Spans nest as a stack on the thread that owns
/// the tracer; a disabled tracer records nothing.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  class Span {
   public:
    Span(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] Span span(std::string name, std::uint64_t request = 0);
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Summed duration of spans whose name equals `name`, in ms.
  [[nodiscard]] double totalMs(const std::string& name) const;
  /// Number of spans named `name`.
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// Self time (duration minus the time covered by child spans) summed
  /// per layer, the span-name prefix before the first '.', in ms, over
  /// the spans recorded from index `first` on.
  [[nodiscard]] std::map<std::string, double> selfMsByLayer(
      std::size_t first = 0) const;
  /// Write the spans as Chrome trace-event JSON.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  int current_ = -1;
};

/// Metrics of one run, in output order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines for stderr.
  std::vector<std::string> notes;
  /// Why the run is not correct.
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// A served (app, variant) pair the correctness gate executes.
struct ServedVariant {
  std::string app;
  std::string variant;
  std::string irText;  // printed module as the service served it
};

/// Correctness gate shared by every workload: each distinct served
/// variant is parsed from its printed IR and executed against the app's
/// sequential reference. Fills `errors` on any mismatch.
void validateServed(const std::vector<ServedVariant>& served,
                    std::vector<std::string>& errors);

/// Record a served variant once per (app, variant).
void rememberServed(std::vector<ServedVariant>& served,
                    const grover::service::AutoResult& r,
                    const std::string& app);

/// The compile-layer metrics every traced run reports: a walk of
/// cold_decide's request path (compileAuto with prove on) over `keys`,
/// layer by layer with tracing on and off, beside the same decisions
/// through CompileService. Every decision is checked against `expected`.
struct LayerWalk {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
};
[[nodiscard]] LayerWalk walkLayers(const std::vector<Key>& keys,
                                   const ExpectedVerdicts& expected,
                                   Tracer& tracer);

/// Warm-key probes against a running service and its server:
/// `submit()` memory hits without a socket and the same requests over a
/// loopback wire round trip.
struct HitProbe {
  double directHitUs = 0;
  double wireRttUs = 0;
};
[[nodiscard]] HitProbe probeWarmHits(grover::service::CompileService& service,
                                     std::uint16_t port,
                                     const std::vector<Key>& keys, bool prove,
                                     Tracer& tracer);

/// JIT-compile and execute every served variant natively with a private
/// engine on a fresh cache directory; appends native.* metrics.
void probeNative(const std::vector<ServedVariant>& served,
                 const std::string& cacheDir, Tracer& tracer,
                 std::vector<Metric>& metrics,
                 std::vector<std::string>& errors);

/// Service, policy-store and server counters as per-layer metrics, each
/// ratio with its base.
void appendProgramCounters(const grover::service::ServiceStats& before,
                           const grover::service::ServiceStats& after,
                           const grover::policy::PolicyStore::Stats& policy,
                           const grover::net::ServerStats& server,
                           std::vector<Metric>& metrics);

/// Workload entry points.
[[nodiscard]] RunResult runColdDecide(const Options& options,
                                      const ExpectedVerdicts& expected);
[[nodiscard]] RunResult runPolicyHit(const Options& options,
                                     const ExpectedVerdicts& expected);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peakRssMb();

}  // namespace perfbench
