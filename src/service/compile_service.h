// Thread-safe compile-and-estimate service on top of grovercl
// (DESIGN.md §8): content-addressed artifact cache (memory LRU + optional
// disk tier), single-flight deduplication of concurrent identical
// requests, and an async submit API executing on support::ThreadPool with
// a bounded in-flight queue and a drain/shutdown path. A cold compile forks
// its two per-variant prove+estimate tails onto the same pool.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "grovercl/compiler.h"
#include "perf/measure.h"
#include "policy/decision_engine.h"
#include "policy/feedback.h"
#include "policy/policy_store.h"
#include "service/artifact_cache.h"
#include "service/cancel.h"
#include "support/single_flight_lru.h"
#include "support/thread_pool.h"

namespace grover::service {

struct ServiceConfig {
  /// Worker threads compiling requests (0 = hardware concurrency). The
  /// service's only concurrency setting: a cold compile forks its two
  /// per-variant prove+estimate tails onto this same pool, and idle
  /// workers join each estimate's work-groups.
  unsigned workers = 0;
  /// Max requests being compiled or queued at once; submit() blocks
  /// (back-pressure) when the bound is reached.
  std::size_t maxQueue = 256;
  /// The artifact tier. Its maxBytes is the service's whole in-memory
  /// budget: the kernel entries take an eighth of it and the artifacts
  /// the rest.
  ArtifactCache::Config cache;
  /// Decision store of the compileAuto() path; set diskDir to persist
  /// decisions across runs (groverc --policy-dir).
  policy::PolicyStore::Config policyStore;
  /// Fraction of eligible compileAuto() requests whose kernels are
  /// *executed* for real (natively when the JIT is available) and whose
  /// measured np is folded back through recordMeasurement(). 0 disables
  /// measurement; 1 measures every request. Sampling is deterministic:
  /// an accumulator fires every 1/measureRate-th eligible request.
  double measureRate = 0;
  /// Knobs of the sampled measurements (repetitions, native opt-out, …).
  /// The scale is overridden per request.
  perf::MeasureOptions measure;
  /// Capacity of the background measurement queue. 0 (the default)
  /// keeps the legacy synchronous behavior: a sampled request executes
  /// its measurement inline and the response carries the measured np.
  /// > 0 moves sampled measurements onto a dedicated low-priority
  /// thread: the response returns immediately (as fast as an unmeasured
  /// request) and the measured np folds into the decision store when the
  /// background measurement completes. A full queue drops the sample
  /// (measurementsDropped) — measurements are advisory, latency is not.
  std::size_t measureQueueDepth = 0;
  /// Confidence half-life of stored policy decisions, in milliseconds
  /// (policy::decayedConfidence). A warm hit older than one horizon
  /// whose measurements contradict its prediction (mismatch flag) is
  /// re-measured inline instead of trusted. 0 disables decay.
  std::uint64_t policyDecayHorizonMs = 0;
};

/// Cumulative counters; snapshot via CompileService::stats().
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t memoryHits = 0;    // served from the in-memory LRU
  std::uint64_t negativeHits = 0;  // of those, cached failures/diagnostics
  std::uint64_t coalesced = 0;     // joined an in-flight identical request
  std::uint64_t misses = 0;        // became the compiling leader
  std::uint64_t diskHits = 0;      // leader loaded the disk artifact
  std::uint64_t compiles = 0;      // pipeline executions, one per artifact
  /// Of those compiles, the ones served from another platform's kernel
  /// entry (a hit, or a follower of the compile building it): no
  /// frontend, Grover, print or prove, only the two estimates.
  std::uint64_t kernelReuses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t diskLoadFailures = 0;
  std::uint64_t diskStores = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytesInUse = 0;
  /// The kernel entries held in memory, outside entries/bytesInUse.
  std::uint64_t kernelEntries = 0;
  std::uint64_t kernelEntryBytes = 0;
  /// Cold compiles abandoned at a stage boundary because every waiting
  /// client disconnected (nothing is cached for them).
  std::uint64_t cancelled = 0;
  // compileAuto() policy path.
  std::uint64_t policyHits = 0;    // warm decisions (loser pipeline skipped)
  std::uint64_t policyMisses = 0;  // cold: both variants compiled+estimated
  std::uint64_t policyStores = 0;  // decisions learned this run
  std::uint64_t policyFlips = 0;   // decisions flipped by feedback
  std::uint64_t policyMismatches = 0;  // predicted-vs-measured flags
  // Sampled real-execution measurements (config.measureRate).
  std::uint64_t measurements = 0;        // completed measurements
  std::uint64_t nativeMeasurements = 0;  // of those, ran as native code
  std::uint64_t policyRefreshes = 0;     // mismatch-triggered re-estimates
  /// Samples dropped because the background measurement queue was full.
  std::uint64_t measurementsDropped = 0;
  /// Jobs sitting in the background measurement queue right now (a
  /// depth gauge, not a cumulative counter — health frames report it).
  std::uint64_t measureQueueBacklog = 0;
  // Symbolic prover (Request::options.prove).
  std::uint64_t proofsRun = 0;      // kernels the prover executed on
  std::uint64_t proofsProved = 0;   // of those, Proved
  std::uint64_t proofsRefuted = 0;  // of those, Refuted (witness found)
  std::uint64_t proofsUnknown = 0;  // of those, Unknown (sound fallback)
  std::uint64_t proofVetoes = 0;    // transforms refused: race introduced
  /// Stale contradicted policy entries re-measured past the decay
  /// horizon (ServiceConfig::policyDecayHorizonMs).
  std::uint64_t staleRemeasures = 0;
  // Cumulative per-stage busy time across all compiles, in milliseconds.
  // proveMs and estimateMs sum both variants' tails, which run
  // concurrently, so one request's share of them can exceed its wall time.
  double frontendMs = 0;   // source → SSA (×2: original + transformed)
  double groverMs = 0;     // the Grover pass
  double validateMs = 0;   // post-transform IR verification
  double printMs = 0;      // IR rendering of both versions
  double estimateMs = 0;   // trace-driven with/without-LM estimation
  // Of estimateMs: phase A (running the kernel into traces) and phases
  // B+C (platform-model digest and merge), summed over both tails.
  double estimateTraceMs = 0;
  double estimateDigestMs = 0;
  double executeMs = 0;    // sampled real executions (both variants)
  double cacheMs = 0;      // artifact-cache probes/stores, memory + disk
  double proveMs = 0;      // symbolic prover runs (original + transformed)
};

/// Result of the policy-driven compileAuto() path.
struct AutoResult {
  /// The served artifact. On a warm policy hit this may be *partial*:
  /// only the winning variant's text is filled and hasEstimate is false
  /// (the whole point is skipping the loser's pipeline). Partial
  /// artifacts are never published to the artifact cache.
  ArtifactPtr artifact;
  policy::Decision decision;
  /// False when the request cannot be policy-routed (no platform to
  /// decide for, or the source fails to compile) — `artifact` is then
  /// the plain submit() result and `decision` is default.
  bool eligible = false;
  /// True when the decision came warm from the policy store.
  bool policyHit = false;
  /// Feature-store key; pass to recordMeasurement() to close the loop.
  std::uint64_t policyKey = 0;
  policy::KernelFeatures features;
  /// True when this request was sampled for a real-execution measurement
  /// (ServiceConfig::measureRate); `measurement` then holds the result
  /// and `decision` already reflects the folded-in np.
  bool measured = false;
  perf::Measurement measurement;

  /// Printed IR of the variant the decision serves.
  [[nodiscard]] const std::string& servedText() const {
    return decision.variant == policy::Variant::Transformed
               ? artifact->transformedText
               : artifact->originalText;
  }
};

class CompileService {
 public:
  using Future = std::shared_future<ArtifactPtr>;

  /// Also pins the process's malloc thresholds
  /// (support::pinMallocThresholds), once per process.
  explicit CompileService(ServiceConfig config = {});
  ~CompileService();  // drains and shuts down

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Async entry point. Returns immediately with a ready future on a
  /// memory-cache hit, joins the in-flight future of an identical
  /// request, or schedules a compilation (blocking while the queue is
  /// full). Throws GroverError for malformed requests (unknown app or
  /// platform, estimation without an app) and after shutdown(). The
  /// future itself never throws: failures are negative artifacts.
  ///
  /// `cancel` (optional) is the caller's disconnect flag: a *cold*
  /// compile is abandoned at the next stage boundary once every waiter's
  /// token is set, the future resolves to a negative "cancelled"
  /// artifact, and nothing is cached. Warm work ignores the token.
  [[nodiscard]] Future submit(Request request, CancelToken cancel = nullptr);

  /// Blocking convenience wrapper: submit + get.
  [[nodiscard]] ArtifactPtr run(Request request,
                                CancelToken cancel = nullptr) {
    return submit(std::move(request), std::move(cancel)).get();
  }

  /// Policy-driven entry point (DESIGN.md §10). Extracts the kernel's
  /// architecture-independent features, consults the decision store
  /// keyed on (features, platform, scale), and on a warm decision
  /// compiles and serves *only* the winning variant — the losing
  /// variant's transform/print/estimate pipeline is skipped entirely.
  /// On a cold key the request runs through the normal cached pipeline
  /// (both variants + estimates), the engine derives the verdict at the
  /// paper's 5% threshold, and the decision is persisted. Requests
  /// without a platform fall back to submit() (nothing to decide).
  /// `cancel` follows the submit() contract: only the cold pipeline
  /// honors it; warm policy-path builds run to completion.
  [[nodiscard]] AutoResult compileAuto(Request request,
                                       CancelToken cancel = nullptr);

  /// Fold a measured np for a policyKey back into the decision store
  /// (EWMA; may flip the stored decision). When the measurement newly
  /// crosses the mismatch tolerance and the key's request is known from
  /// a prior compileAuto(), the service re-runs the estimation pipeline
  /// and refreshes the decision in place instead of leaving it flagged.
  /// Returns the updated decision.
  policy::Decision recordMeasurement(std::uint64_t policyKey,
                                     double measuredNp);

  [[nodiscard]] policy::PolicyStore& policyStore() { return policy_store_; }
  [[nodiscard]] const policy::DecisionEngine& decisionEngine() const {
    return engine_;
  }

  /// Wait until every submitted request has completed. The service stays
  /// usable afterwards.
  void drain();

  /// Stop accepting new requests, then drain. Idempotent; also performed
  /// by the destructor.
  void shutdown();

  /// One consistent snapshot of every service counter, taken under a
  /// single lock — concurrent traffic can never produce a torn view
  /// (e.g. policyHits bumped but measurements not yet). The daemon's
  /// stats endpoint depends on this.
  [[nodiscard]] ServiceStats stats() const;

  /// Fill appId-derived fields and validate the request. Public so tools
  /// and tests can inspect the canonical form. Throws GroverError.
  [[nodiscard]] static Request resolve(Request request);

  /// Stable content hash of a *resolved* request — the cache key. With
  /// the platform cleared it is the key of the request's kernel entry.
  [[nodiscard]] static std::uint64_t cacheKey(const Request& resolved);

 private:
  /// Service-owned counters. All of them live in one struct guarded by
  /// stats_mutex_ (never the service mutex_) so stats() can copy the
  /// whole block atomically instead of reading fields one by one.
  struct Counters {
    std::uint64_t requests = 0, memoryHits = 0, negativeHits = 0,
        coalesced = 0, misses = 0, diskHits = 0, compiles = 0, cancelled = 0,
        kernelReuses = 0;
    std::uint64_t policyHits = 0, policyMisses = 0, policyStores = 0;
    std::uint64_t measurements = 0, nativeMeasurements = 0,
        policyRefreshes = 0, measurementsDropped = 0;
    std::uint64_t proofsRun = 0, proofsProved = 0, proofsRefuted = 0,
        proofsUnknown = 0, proofVetoes = 0, staleRemeasures = 0;
    // Cumulative per-stage wall time, nanoseconds.
    std::uint64_t frontendNs = 0, groverNs = 0, validateNs = 0,
        printNs = 0, estimateNs = 0, estimateTraceNs = 0,
        estimateDigestNs = 0, executeNs = 0, cacheNs = 0, proveNs = 0;
  };

  /// RAII stage clock: adds the elapsed nanoseconds to one Counters
  /// field on destruction.
  class StageTimer {
   public:
    StageTimer(CompileService& service, std::uint64_t Counters::*field)
        : service_(service),
          field_(field),
          start_(std::chrono::steady_clock::now()) {}
    ~StageTimer() {
      service_.bump(
          field_,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count()));
    }
    StageTimer(const StageTimer&) = delete;
    StageTimer& operator=(const StageTimer&) = delete;

   private:
    CompileService& service_;
    std::uint64_t Counters::*field_;
    std::chrono::steady_clock::time_point start_;
  };

  void bump(std::uint64_t Counters::*field, std::uint64_t delta = 1) {
    std::lock_guard lock(stats_mutex_);
    counters_.*field += delta;
  }

  /// The full cold pipeline. It first takes the request's kernel entry
  /// (kernels_.claim). A compile that leads builds the entry: frontend,
  /// Grover and print (analyseKernel), then both proofs when asked
  /// (proveKernel), and publishes it before estimating. One that reuses
  /// an entry parses its two IR texts instead. Then it forks into the
  /// original's and the transformed variant's estimates; the original's
  /// is a reclaimable side task on pool_, the transformed one runs
  /// inline, and the call returns only after both finished. `cancel`
  /// (may be null) is polled at stage boundaries, in each fork branch and
  /// while following too; on trigger the compile aborts by exception,
  /// caught by the submit() worker.
  [[nodiscard]] ArtifactPtr compileUncached(const Request& resolved,
                                            const CancelScope* cancel);
  /// A leader's kernel half: frontend ×2, Grover on `transformed`,
  /// verify and print. Returns the kernel entry before proofs, or a
  /// negative artifact.
  [[nodiscard]] ArtifactPtr analyseKernel(
      const Request& resolved, Program& original, Program& transformed,
      const std::function<void()>& checkCancelled);
  /// Proves both variants, forked like the estimates, and returns
  /// `unproved` with the proofs, note and veto: the proved kernel entry.
  [[nodiscard]] ArtifactPtr proveKernel(
      const Request& resolved, const Artifact& unproved, Program& original,
      Program& transformed, const std::function<void()>& checkCancelled);
  /// Deterministic measurement sampling of one eligible compileAuto()
  /// result. Synchronous mode (measureQueueDepth == 0) measures inline
  /// and folds the np before returning; queue mode enqueues the sample
  /// for the background measurement thread and returns immediately.
  /// `force` bypasses the sampling accumulator and always measures
  /// inline — the stale-contradicted-decision re-measure path.
  void maybeMeasure(const Request& resolved, AutoResult& out,
                    bool force = false);
  /// Body of the background measurement thread.
  void measureLoop();
  void stopMeasureThread();

  ServiceConfig config_;
  ArtifactCache cache_;
  policy::PolicyStore policy_store_;
  policy::DecisionEngine engine_;
  policy::FeedbackLoop feedback_;
  ThreadPool pool_;

  mutable std::mutex mutex_;
  std::condition_variable cv_capacity_;
  /// One in-flight compile per cache key: the shared future every
  /// coalescer joins, plus the aggregated cancellation scope they
  /// register their tokens with.
  struct Inflight {
    Future future;
    CancelScopePtr cancel;
  };
  std::unordered_map<std::uint64_t, Inflight> inflight_;
  /// Platform-free kernel entries (DESIGN.md §8): the artifact a compile
  /// has before estimating, keyed by cacheKey() with the platform cleared
  /// and built single-flight. Memory only, an eighth of
  /// config_.cache.maxBytes; holds texts, never Programs.
  SingleFlightLru<ArtifactPtr> kernels_;
  std::size_t pending_ = 0;
  bool stopping_ = false;
  /// Measurement sampling accumulator (guarded by mutex_): gains
  /// measureRate per eligible request, fires when it reaches 1.
  double measure_accum_ = 0;
  /// policyKey → resolved request of the last compileAuto() that used
  /// it, so a mismatch can be re-estimated (guarded by mutex_).
  std::unordered_map<std::uint64_t, Request> auto_requests_;

  /// Background measurement queue (ServiceConfig::measureQueueDepth):
  /// sampled requests enqueue here and a dedicated low-priority thread
  /// executes them, so measurement never rides a request's latency path.
  struct MeasureJob {
    std::uint64_t policyKey = 0;
    Request resolved;
  };
  mutable std::mutex measure_mutex_;  // stats() reads the queue depth
  std::condition_variable measure_cv_;
  std::deque<MeasureJob> measure_queue_;  // guarded by measure_mutex_
  bool measure_stop_ = false;             // guarded by measure_mutex_
  std::thread measure_thread_;

  mutable std::mutex stats_mutex_;
  Counters counters_;  // guarded by stats_mutex_
};

}  // namespace grover::service
