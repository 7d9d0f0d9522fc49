#include "service/compile_service.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <optional>

#include "grovercl/compiler.h"
#include "ir/ir_parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "perf/estimator.h"
#include "perf/platform.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "support/malloc_tuning.h"
#include "sym/prover.h"
#include "sym/witness_check.h"

namespace grover::service {
namespace {

ArtifactPtr negative(std::string diagnostics) {
  auto a = std::make_shared<Artifact>();
  a->ok = false;
  a->diagnostics = std::move(diagnostics);
  return a;
}

/// Thrown by compileUncached at a stage boundary once every waiter of
/// the compile has disconnected; caught by the submit() worker.
struct CancelledCompile {};

std::uint64_t wallClockMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Worst-of aggregation for multi-kernel requests: one refuted kernel
/// refutes the artifact, one unknown kernel degrades it.
sym::ProofStatus worseOf(sym::ProofStatus a, sym::ProofStatus b) {
  const auto rank = [](sym::ProofStatus s) {
    switch (s) {
      case sym::ProofStatus::Refuted: return 3;
      case sym::ProofStatus::Unknown: return 2;
      case sym::ProofStatus::Proved: return 1;
      case sym::ProofStatus::Unchecked: return 0;
    }
    return 0;
  };
  return rank(a) >= rank(b) ? a : b;
}

/// A variant's aggregated proof status and the note of its decisive
/// verdict.
using Proof = std::pair<sym::ProofStatus, std::string>;

/// The platform-free artifact (the kernel entry): `unproved` plus both
/// variants' proofs and the safety veto.
ArtifactPtr withProofs(const Artifact& unproved, const Proof& original,
                       const Proof& transformed) {
  auto a = std::make_shared<Artifact>(unproved);
  const auto& [origStatus, origNote] = original;
  const auto& [transStatus, transNote] = transformed;
  a->proofOriginal = origStatus;
  a->proofTransformed = transStatus;
  a->proofNote =
      worseOf(transStatus, origStatus) == transStatus ? transNote : origNote;
  // The veto: an originally race-free (or at worst Unknown) kernel whose
  // transformed IR is provably racy must never be served transformed —
  // the transform manufactured the race. An original that is itself
  // Refuted stays the author's problem; Grover did not make it worse.
  a->proofVetoed = origStatus != sym::ProofStatus::Refuted &&
                   transStatus == sym::ProofStatus::Refuted;
  return a;
}

/// The kernel entries' share of ServiceConfig::cache.maxBytes. A kernel
/// has one entry and one artifact per platform, all about the size of
/// its two IR texts, so an eighth keeps the entries of the kernels whose
/// artifacts the other seven eighths retain.
constexpr std::size_t kKernelBudgetDivisor = 8;

ArtifactCache::Config artifactTier(ArtifactCache::Config config) {
  config.maxBytes -= config.maxBytes / kKernelBudgetDivisor;
  return config;
}

/// A fresh Program from printed IR — the same trust boundary as the
/// artifact disk tier (ir::parseModule verifies every function).
Program parseProgram(const std::string& text) {
  Program program;
  program.context = std::make_unique<ir::Context>();
  program.module = ir::parseModule(*program.context, text);
  return program;
}

/// Fork-join of two independent tails of one compile on the service's
/// own pool. `side` is offered to the pool as a reclaimable task while
/// the caller runs `here`; then the caller claims `side` itself unless a
/// worker already started it, in which case it waits for that worker. So
/// a saturated or one-worker pool runs both tails serially on the caller
/// and can never deadlock, while an idle one overlaps them. Returns only
/// after both tails finished. If both throw, `side`'s exception wins.
template <typename Side, typename Here>
void forkJoin(ThreadPool& pool, Side side, Here here) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(side));
  auto claimed = std::make_shared<std::atomic_flag>();
  std::future<void> sideDone = task->get_future();
  // The queued copy outlives this call when the caller reclaims `side`;
  // it then only finds the flag set and never touches `side`'s captures.
  pool.submit([task, claimed] {
    if (!claimed->test_and_set()) (*task)();
  });
  std::exception_ptr hereError;
  try {
    here();
  } catch (...) {
    hereError = std::current_exception();
  }
  if (!claimed->test_and_set()) (*task)();
  sideDone.get();  // waits for a worker-run `side`; rethrows its error
  if (hereError != nullptr) std::rethrow_exception(hereError);
}

}  // namespace

CompileService::CompileService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(artifactTier(config_.cache)),
      policy_store_(config_.policyStore),
      engine_(),
      feedback_(policy_store_),
      pool_(config_.workers),
      kernels_(config_.cache.maxBytes / kKernelBudgetDivisor,
               config_.cache.shards) {
  // Estimates allocate multi-MiB buffers on whichever pool worker runs a
  // work-group; keep them out of the per-thread arenas (DESIGN.md §8).
  support::pinMallocThresholds();
  if (config_.measureRate > 0 && config_.measureQueueDepth > 0) {
    measure_thread_ = std::thread([this] { measureLoop(); });
  }
}

CompileService::~CompileService() { shutdown(); }

Request CompileService::resolve(Request request) {
  if (!request.appId.empty()) {
    const apps::Application& app = apps::applicationById(request.appId);
    request.source = app.source();
    request.kernelName = app.kernelName();
    request.options.onlyBuffers = app.buffersToDisable();
  }
  if (!request.platform.empty()) {
    if (request.appId.empty()) {
      throw GroverError(
          "estimation requires a built-in app id (the app provides the "
          "dataset)");
    }
    if (!perf::findPlatform(request.platform)) {
      throw GroverError("unknown platform '" + request.platform + "'");
    }
  }
  return request;
}

std::uint64_t CompileService::cacheKey(const Request& resolved) {
  Fnv1a h;
  h.update(std::string_view("groverc-artifact-key-v3"));
  h.update(std::string_view(resolved.source));
  h.update(std::string_view(resolved.kernelName));
  h.update(static_cast<std::uint64_t>(resolved.options.onlyBuffers.size()));
  for (const std::string& b : resolved.options.onlyBuffers) {
    h.update(std::string_view(b));  // std::set iterates in sorted order
  }
  h.update(resolved.options.removeBarriers);
  h.update(resolved.options.cleanup);
  h.update(resolved.options.prove);
  if (resolved.options.prove) {
    // Proofs run under the app's launch geometry, or a per-kernel one for
    // raw source (compileUncached), so an app and a raw request of the
    // same kernel get different proofs. The empty app id marks raw source.
    h.update(std::string_view(resolved.appId));
  }
  h.update(std::string_view(resolved.platform));
  h.update(static_cast<std::uint64_t>(resolved.scale));
  return h.digest();
}

CompileService::Future CompileService::submit(Request request,
                                              CancelToken cancel) {
  Request resolved = resolve(std::move(request));
  const std::uint64_t key = cacheKey(resolved);
  bump(&Counters::requests);

  std::unique_lock lock(mutex_);
  for (;;) {
    if (stopping_) {
      throw GroverError("compile service is shut down");
    }
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
      bump(&Counters::coalesced);
      // Joining an in-flight compile keeps it alive until *this* waiter
      // also cancels: the scope is the union of every joiner's token.
      it->second.cancel->addWaiter(std::move(cancel));
      return it->second.future;
    }
    // Memory probe under the service lock: the leader publishes to the
    // cache *before* leaving inflight_, so this order can never miss a
    // finished compilation (single-flight guarantee).
    {
      StageTimer timer(*this, &Counters::cacheNs);
      if (ArtifactPtr hit = cache_.get(key)) {
        bump(&Counters::memoryHits);
        if (!hit->ok) bump(&Counters::negativeHits);
        std::promise<ArtifactPtr> ready;
        ready.set_value(std::move(hit));
        return ready.get_future().share();
      }
    }
    if (pending_ < config_.maxQueue) break;
    cv_capacity_.wait(lock);
  }

  bump(&Counters::misses);
  ++pending_;
  auto promise = std::make_shared<std::promise<ArtifactPtr>>();
  Future future = promise->get_future().share();
  auto scope = std::make_shared<CancelScope>();
  scope->addWaiter(std::move(cancel));
  inflight_.emplace(key, Inflight{future, scope});
  lock.unlock();

  pool_.submit([this, key, promise, scope,
                resolved = std::move(resolved)]() mutable {
    ArtifactPtr artifact;
    bool wasCancelled = false;
    try {
      if (scope->cancelled()) throw CancelledCompile{};
      {
        StageTimer timer(*this, &Counters::cacheNs);
        artifact = cache_.loadFromDisk(key);
      }
      if (artifact != nullptr) {
        bump(&Counters::diskHits);
      } else {
        artifact = compileUncached(resolved, scope.get());
        StageTimer timer(*this, &Counters::cacheNs);
        cache_.storeToDisk(key, *artifact);
      }
    } catch (const CancelledCompile&) {
      // Every waiter disconnected: stop burning CPU. Nothing — not even
      // a negative entry — is cached; the next identical request starts
      // a fresh compile.
      wasCancelled = true;
      artifact =
          negative("cancelled: every client disconnected mid-compile");
    } catch (const std::exception& e) {
      artifact = negative(std::string("internal error: ") + e.what());
    } catch (...) {
      artifact = negative("internal error");
    }
    // Publish to the cache and leave the in-flight map BEFORE completing
    // the future: anyone who observes the future done will find the
    // artifact in the cache, never a stale in-flight entry.
    if (!wasCancelled) {
      StageTimer timer(*this, &Counters::cacheNs);
      cache_.put(key, artifact);
    }
    {
      std::lock_guard relock(mutex_);
      inflight_.erase(key);
      --pending_;
    }
    // The cancelled counter bumps only after the in-flight entry is
    // gone, so a caller that observed it never joins the doomed future.
    if (wasCancelled) bump(&Counters::cancelled);
    cv_capacity_.notify_all();
    promise->set_value(artifact);
  });
  return future;
}

AutoResult CompileService::compileAuto(Request request, CancelToken cancel) {
  Request resolved = resolve(std::move(request));
  AutoResult out;
  if (resolved.platform.empty()) {
    // Nothing to decide without a platform; serve the normal path.
    out.artifact = run(resolved, std::move(cancel));
    return out;
  }
  const perf::PlatformSpec spec = *perf::findPlatform(resolved.platform);

  // Front-end compile once (microseconds — see bench_ablation_pass_cost)
  // to extract the feature vector the decision is keyed on.
  DiagnosticEngine diags;
  Program program = compileWithDiags(resolved.source, diags);
  if (program.module == nullptr || diags.hasErrors()) {
    out.artifact = negative(diags.hasErrors()
                                ? diags.str()
                                : "compilation produced no module");
    return out;
  }
  ir::Function* kernel = program.kernel(resolved.kernelName);
  if (kernel == nullptr) {
    out.artifact =
        negative("kernel '" + resolved.kernelName + "' not found");
    return out;
  }
  const apps::Application& app = apps::applicationById(resolved.appId);
  const apps::Instance instance = app.makeInstance(resolved.scale);
  out.features = policy::extractFeatures(*kernel, &instance.range);
  // The tag folds in everything that shapes the transform besides the
  // kernel itself: the scale and the Grover options. The NVD-MM-A/B/AB
  // family shares one kernel source (identical features) but disables
  // different buffers — with different winners, so they must not share a
  // decision.
  Fnv1a tag;
  tag.update(static_cast<std::uint64_t>(resolved.scale));
  tag.update(static_cast<std::uint64_t>(resolved.options.onlyBuffers.size()));
  for (const std::string& b : resolved.options.onlyBuffers) {
    tag.update(std::string_view(b));  // std::set iterates in sorted order
  }
  tag.update(resolved.options.removeBarriers);
  tag.update(resolved.options.cleanup);
  tag.update(resolved.options.prove);
  out.policyKey = policy::featureKey(out.features, spec.name, tag.digest());
  out.eligible = true;

  if (std::optional<policy::Decision> warm =
          policy_store_.lookup(out.policyKey);
      warm.has_value()) {
    bump(&Counters::policyHits);
    out.policyHit = true;
    out.decision = *warm;
    // A decision whose transform was Refuted can never serve the
    // transformed variant, whatever the stored bytes claim (defense
    // against hand-edited or corrupted policy directories).
    if (out.decision.proof == sym::ProofStatus::Refuted) {
      out.decision.variant = policy::Variant::Original;
      out.decision.predictedOutcome = perf::Outcome::Loss;
    }
    // Age-decay the stored confidence toward the feature-prior floor; a
    // stale entry whose measurements contradict its prediction is
    // re-measured inline instead of trusted for another horizon.
    const std::uint64_t now = wallClockMs();
    out.decision.confidence = policy::decayedConfidence(
        out.decision, engine_.prior(out.features, spec).confidence, now,
        config_.policyDecayHorizonMs);
    const bool remeasure = policy::shouldRemeasure(
        *warm, now, config_.policyDecayHorizonMs);
    if (remeasure) bump(&Counters::staleRemeasures);
    // A full artifact may already be cached for this exact request —
    // serving it is free and strictly more informative.
    {
      StageTimer timer(*this, &Counters::cacheNs);
      if (ArtifactPtr full = cache_.get(cacheKey(resolved))) {
        out.artifact = full;
      }
    }
    if (out.artifact != nullptr) {
      maybeMeasure(resolved, out, remeasure);
      return out;
    }
    // Warm fast path: build only the winning variant from the module we
    // already compiled. No second front-end run, no Grover/print for the
    // losing variant, and no estimation at all.
    auto artifact = std::make_shared<Artifact>();
    if (warm->variant == policy::Variant::Transformed) {
      for (const auto& fn : program.module->functions()) {
        if (!fn->isKernel()) continue;
        if (!resolved.kernelName.empty() &&
            fn->name() != resolved.kernelName) {
          continue;
        }
        grv::GroverResult result = [&] {
          StageTimer timer(*this, &Counters::groverNs);
          return grv::runGrover(*fn, resolved.options);
        }();
        {
          StageTimer timer(*this, &Counters::validateNs);
          ir::verifyFunction(*fn);
        }
        artifact->report.anyTransformed |= result.anyTransformed;
        artifact->report.barriersRemoved |= result.barriersRemoved;
        for (auto& b : result.buffers) {
          artifact->report.buffers.push_back(std::move(b));
        }
      }
      artifact->transformedText = ir::printModule(*program.module);
    } else {
      StageTimer timer(*this, &Counters::printNs);
      artifact->originalText = ir::printModule(*program.module);
    }
    artifact->ok = true;
    // The warm path deliberately does not re-prove: proof status was
    // settled when the decision was learned and rides in decision.proof,
    // so a --prove warm hit costs exactly what an unproved one does.
    // Deliberately NOT cache_.put(): the artifact is partial (one
    // variant, no estimate) and must not shadow full artifacts.
    out.artifact = std::move(artifact);
    maybeMeasure(resolved, out, remeasure);
    return out;
  }

  bump(&Counters::policyMisses);
  // Cold: full both-variant pipeline through the cached, single-flight
  // path, then learn the decision from the estimates. This is the only
  // policy-path leg that honors the cancel token — the warm builds
  // above always complete (their artifact is what keeps serving warm).
  out.artifact = run(resolved, std::move(cancel));
  if (out.artifact->ok && out.artifact->hasEstimate) {
    out.decision = engine_.decide(
        out.features, spec,
        policy::EstimatePair{out.artifact->cyclesWithLM,
                             out.artifact->cyclesWithoutLM});
    out.decision.proof = out.artifact->proofTransformed;
    if (out.artifact->proofVetoed) {
      // The transform introduced a provable race: automatic Loss and the
      // original is served, regardless of what np predicted. Full
      // confidence — a proof does not decay like an estimate does.
      out.decision.variant = policy::Variant::Original;
      out.decision.predictedOutcome = perf::Outcome::Loss;
      out.decision.confidence = 1.0;
      out.decision.source = "proof";
    }
    policy_store_.store(out.policyKey, out.decision);
    bump(&Counters::policyStores);
  }
  maybeMeasure(resolved, out);
  return out;
}

void CompileService::maybeMeasure(const Request& resolved, AutoResult& out,
                                  bool force) {
  if (!out.eligible || out.artifact == nullptr || !out.artifact->ok) return;
  {
    std::lock_guard lock(mutex_);
    // Remember the request even when this one isn't sampled: a later
    // recordMeasurement() mismatch needs it to re-run the pipeline.
    auto_requests_[out.policyKey] = resolved;
    if (!force) {
      if (config_.measureRate <= 0) return;
      measure_accum_ += std::min(config_.measureRate, 1.0);
      if (measure_accum_ < 1.0) return;
      measure_accum_ -= 1.0;
    }
  }

  // Forced re-measures (stale contradicted decisions) always run inline:
  // the point is that the entry must not be served unexamined again, so
  // the fold has to land before this response does.
  if (!force && config_.measureQueueDepth > 0) {
    // Background mode: hand the sample to the measurement thread and
    // answer now. The response reflects the pre-measurement decision;
    // the fold (and any mismatch-triggered refresh) happens off-path.
    bool dropped = false;
    {
      std::lock_guard lock(measure_mutex_);
      if (measure_stop_) return;
      if (measure_queue_.size() >= config_.measureQueueDepth) {
        dropped = true;
      } else {
        measure_queue_.push_back({out.policyKey, resolved});
      }
    }
    if (dropped) {
      bump(&Counters::measurementsDropped);
    } else {
      measure_cv_.notify_one();
    }
    return;
  }

  perf::MeasureOptions opts = config_.measure;
  opts.scale = resolved.scale;
  perf::Measurement m;
  {
    StageTimer timer(*this, &Counters::executeNs);
    m = perf::measure(apps::applicationById(resolved.appId), opts);
  }
  if (!m.ok) return;  // execution failure: keep the estimate-based decision
  bump(&Counters::measurements);
  if (m.usedNative) bump(&Counters::nativeMeasurements);
  out.decision = recordMeasurement(out.policyKey, m.measuredNp);
  out.measured = true;
  out.measurement = std::move(m);
}

void CompileService::measureLoop() {
  for (;;) {
    MeasureJob job;
    {
      std::unique_lock lock(measure_mutex_);
      measure_cv_.wait(lock, [this] {
        return measure_stop_ || !measure_queue_.empty();
      });
      // Backlog is discarded on stop: measurements are advisory and a
      // draining daemon should not execute kernels for nobody.
      if (measure_stop_) return;
      job = std::move(measure_queue_.front());
      measure_queue_.pop_front();
    }

    perf::MeasureOptions opts = config_.measure;
    opts.scale = job.resolved.scale;
    perf::Measurement m;
    {
      StageTimer timer(*this, &Counters::executeNs);
      m = perf::measure(apps::applicationById(job.resolved.appId), opts);
    }
    if (!m.ok) continue;  // keep the estimate-based decision
    bump(&Counters::measurements);
    if (m.usedNative) bump(&Counters::nativeMeasurements);
    // Same fold as the synchronous path; recordMeasurement absorbs a
    // shutdown racing the refresh internally.
    (void)recordMeasurement(job.policyKey, m.measuredNp);
  }
}

void CompileService::stopMeasureThread() {
  {
    std::lock_guard lock(measure_mutex_);
    measure_stop_ = true;
  }
  measure_cv_.notify_all();
  if (measure_thread_.joinable()) measure_thread_.join();
}

policy::Decision CompileService::recordMeasurement(std::uint64_t policyKey,
                                                   double measuredNp) {
  bool newlyMismatched = false;
  policy::Decision d =
      feedback_.recordMeasurement(policyKey, measuredNp, &newlyMismatched);
  if (!newlyMismatched) return d;

  // The measurement just crossed the mismatch tolerance: the platform
  // model's prediction disagrees with observed reality. Instead of
  // leaving the entry flagged, re-run the estimation pipeline and
  // refresh the decision — and when the fresh estimate *still* diverges
  // from the measured EWMA, trust the measurement outright.
  Request resolved;
  {
    std::lock_guard lock(mutex_);
    const auto it = auto_requests_.find(policyKey);
    if (it == auto_requests_.end()) return d;  // key never served here
    resolved = it->second;
  }
  ArtifactPtr fresh;
  try {
    fresh = run(resolved);
  } catch (const GroverError&) {
    return d;  // service shut down mid-refresh; keep the flag
  }
  if (fresh == nullptr || !fresh->ok || !fresh->hasEstimate) return d;

  const double threshold = feedback_.config().threshold;
  const double freshNp = fresh->normalized;
  const double relDiff =
      freshNp > 0 ? std::fabs(freshNp - d.ewmaNp) / freshNp : 0.0;
  policy::Decision refreshed = d;
  refreshed.mismatch = false;
  refreshed.source = "refresh";
  if (relDiff > feedback_.config().mismatchTolerance) {
    refreshed.predictedNp = d.ewmaNp;
    refreshed.confidence = 0.9;
  } else {
    refreshed.predictedNp = freshNp;
  }
  refreshed.variant =
      policy::Decision::variantFor(refreshed.predictedNp, threshold);
  refreshed.predictedOutcome =
      perf::classify(refreshed.predictedNp, threshold);
  refreshed.storedAtMs = 0;  // re-stamp: the refresh restarts the clock
  policy_store_.store(policyKey, refreshed);
  bump(&Counters::policyRefreshes);
  return refreshed;
}

ArtifactPtr CompileService::analyseKernel(
    const Request& resolved, Program& original, Program& transformed,
    const std::function<void()>& checkCancelled) {
  auto unproved = std::make_shared<Artifact>();
  {
    StageTimer timer(*this, &Counters::frontendNs);
    DiagnosticEngine diags;
    original = compileWithDiags(resolved.source, diags);
    if (original.module == nullptr || diags.hasErrors()) {
      return negative(diags.hasErrors() ? diags.str()
                                        : "compilation produced no module");
    }
    diags.clear();
    transformed = compileWithDiags(resolved.source, diags);
    if (transformed.module == nullptr || diags.hasErrors()) {
      return negative(diags.str());
    }
  }
  checkCancelled();

  bool any = false;
  for (const auto& fn : transformed.module->functions()) {
    if (!fn->isKernel()) continue;
    if (!resolved.kernelName.empty() && fn->name() != resolved.kernelName) {
      continue;
    }
    any = true;
    grv::GroverResult result = [&] {
      StageTimer timer(*this, &Counters::groverNs);
      return grv::runGrover(*fn, resolved.options);
    }();
    {
      StageTimer timer(*this, &Counters::validateNs);
      ir::verifyFunction(*fn);
    }
    unproved->report.anyTransformed |= result.anyTransformed;
    unproved->report.barriersRemoved |= result.barriersRemoved;
    for (auto& b : result.buffers) {
      unproved->report.buffers.push_back(std::move(b));
    }
  }
  if (!any) {
    return negative(resolved.kernelName.empty()
                        ? "no kernel found in source"
                        : "kernel '" + resolved.kernelName + "' not found");
  }
  checkCancelled();

  {
    StageTimer timer(*this, &Counters::printNs);
    unproved->originalText = ir::printModule(*original.module);
    unproved->transformedText = ir::printModule(*transformed.module);
  }
  unproved->ok = true;
  return unproved;
}

ArtifactPtr CompileService::proveKernel(
    const Request& resolved, const Artifact& unproved, Program& original,
    Program& transformed, const std::function<void()>& checkCancelled) {
  const apps::Application* app =
      resolved.appId.empty() ? nullptr
                             : &apps::applicationById(resolved.appId);
  // App requests prove under their real launch geometry and argument
  // values; raw sources prove under a per-kernel geometry with the
  // dimensions the kernel never queries collapsed to extent 1.
  sym::ProveOptions popts;
  if (app != nullptr) {
    const apps::Instance instance = app->makeInstance(resolved.scale);
    popts = sym::proveOptionsForLaunch(instance.range, instance.args);
  }
  const auto proveMatching = [&](Program& program, Proof& proof) {
    checkCancelled();
    StageTimer timer(*this, &Counters::proveNs);
    auto& [agg, note] = proof;
    for (const auto& fn : program.module->functions()) {
      if (!fn->isKernel()) continue;
      if (!resolved.kernelName.empty() && fn->name() != resolved.kernelName) {
        continue;
      }
      sym::SymbolicReport report = sym::proveRaceFreedom(
          *fn, app != nullptr ? popts : sym::proveOptionsForKernel(*fn));
      bump(&Counters::proofsRun);
      switch (report.status) {
        case sym::ProofStatus::Proved:
          bump(&Counters::proofsProved);
          break;
        case sym::ProofStatus::Refuted:
          bump(&Counters::proofsRefuted);
          break;
        default:
          bump(&Counters::proofsUnknown);
          break;
      }
      const sym::ProofStatus before = agg;
      agg = worseOf(report.status, agg);
      if (agg != before || note.empty()) {
        note = fn->name() + ": " + report.summary();
      }
    }
  };
  Proof origProof{sym::ProofStatus::Unchecked, ""};
  Proof transProof{sym::ProofStatus::Unchecked, ""};
  forkJoin(
      pool_, [&] { proveMatching(original, origProof); },
      [&] { proveMatching(transformed, transProof); });
  return withProofs(unproved, origProof, transProof);
}

ArtifactPtr CompileService::compileUncached(const Request& resolved,
                                            const CancelScope* cancel) {
  bump(&Counters::compiles);
  // Stage-boundary cancellation poll: cheap enough to sit between every
  // stage, coarse enough that a stage never observes a torn abort.
  const std::function<void()> checkCancelled = [cancel] {
    if (cancel != nullptr && cancel->cancelled()) throw CancelledCompile{};
  };

  // Everything before the estimates belongs to the kernel, not the
  // platform (DESIGN.md §8): reuse it when another platform's compile of
  // this kernel built it, and parse its texts into fresh Programs, since
  // an estimate renumbers the function it runs.
  Request platformFree = resolved;
  platformFree.platform.clear();
  // A compile that follows another one building the entry polls its own
  // scope: it never inherits a cancellation it did not ask for. Each
  // compile waits only on running work (forkJoin reclaims a queued side
  // task, an estimate waits only for helpers that started), so a follower
  // never waits on a queued leader, even on a one-worker pool.
  SingleFlightLru<ArtifactPtr>::Claim claim =
      kernels_.claim(cacheKey(platformFree), checkCancelled);
  ArtifactPtr entry = claim.value();
  const bool estimating = !resolved.platform.empty();
  Program original;
  Program transformed;
  if (claim.leading()) {
    // Leading: the kernel half, published before any estimate so that
    // compiles of this kernel for other platforms wait only for it.
    ArtifactPtr unproved =
        analyseKernel(resolved, original, transformed, checkCancelled);
    if (!unproved->ok) return unproved;
    entry = resolved.options.prove
                ? proveKernel(resolved, *unproved, original, transformed,
                              checkCancelled)
                : unproved;
    claim.publish(entry, entry->byteSize());
  } else {
    bump(&Counters::kernelReuses);
    if (estimating) {
      StageTimer timer(*this, &Counters::frontendNs);
      original = parseProgram(entry->originalText);
      transformed = parseProgram(entry->transformedText);
    }
  }
  if (!estimating) {
    if (entry->proofVetoed) bump(&Counters::proofVetoes);
    return entry;
  }

  // The platform half: one estimate per Program, because the estimator's
  // rt::KernelImage renumbers the function it runs; the two Programs
  // share nothing, so both estimates run at once, and each one's
  // work-groups spread over the pool's idle workers (DESIGN.md §8).
  const apps::Application& app = apps::applicationById(resolved.appId);
  const auto estimateVariant = [&](Program& program,
                                   perf::PerfEstimate& estimate) {
    // Estimation dominates cold latency, so it polls the scope before
    // every work-group the tail runs: both tails estimate at once,
    // leaving no stage boundary between them. The estimate borrows the
    // service's own pool: idle workers join its work-groups and yield
    // to any request that reaches the pool meanwhile. The pool's width
    // stays the service's only concurrency setting.
    checkCancelled();
    {
      StageTimer timer(*this, &Counters::estimateNs);
      apps::Instance instance = app.makeInstance(resolved.scale);
      estimate = perf::estimate(*perf::findPlatform(resolved.platform),
                                *program.kernel(resolved.kernelName),
                                instance.range, instance.args,
                                instance.benchSampleStride, pool_,
                                checkCancelled);
    }
    // Truncated to whole nanoseconds, so the phases never sum past the
    // stage timer that encloses them.
    bump(&Counters::estimateTraceNs,
         static_cast<std::uint64_t>(estimate.traceMs * 1e6));
    bump(&Counters::estimateDigestNs,
         static_cast<std::uint64_t>(estimate.digestMs * 1e6));
  };
  perf::PerfEstimate with;
  perf::PerfEstimate without;
  forkJoin(
      pool_, [&] { estimateVariant(original, with); },
      [&] { estimateVariant(transformed, without); });

  auto artifact = std::make_shared<Artifact>(*entry);
  artifact->hasEstimate = true;
  artifact->cyclesWithLM = with.cycles;
  artifact->cyclesWithoutLM = without.cycles;
  artifact->normalized =
      perf::normalizedPerformance(with.cycles, without.cycles);
  artifact->outcome = perf::classify(artifact->normalized);
  if (artifact->proofVetoed) bump(&Counters::proofVetoes);
  return artifact;
}

void CompileService::drain() { pool_.waitIdle(); }

void CompileService::shutdown() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_capacity_.notify_all();
  // Stop the measurement thread before draining the pool: a mid-flight
  // refresh it triggered sees stopping_ and backs out quickly.
  stopMeasureThread();
  pool_.waitIdle();
}

ServiceStats CompileService::stats() const {
  // Sub-component snapshots first (each consistent under its own lock),
  // then every service counter in ONE critical section — a reader can
  // never observe e.g. policyHits from after a request but measurements
  // from before it.
  const ArtifactCache::Stats c = cache_.stats();
  const policy::FeedbackLoop::Stats f = feedback_.stats();
  Counters snap;
  {
    std::lock_guard lock(stats_mutex_);
    snap = counters_;
  }
  ServiceStats s;
  s.requests = snap.requests;
  s.memoryHits = snap.memoryHits;
  s.negativeHits = snap.negativeHits;
  s.coalesced = snap.coalesced;
  s.misses = snap.misses;
  s.diskHits = snap.diskHits;
  s.compiles = snap.compiles;
  s.kernelReuses = snap.kernelReuses;
  s.cancelled = snap.cancelled;
  s.evictions = c.evictions;
  s.diskLoadFailures = c.diskLoadFailures;
  s.diskStores = c.diskStores;
  s.entries = c.entries;
  s.bytesInUse = c.bytesInUse;
  const auto k = kernels_.stats();
  s.kernelEntries = k.entries;
  s.kernelEntryBytes = k.weight;
  const auto ms = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e6;
  };
  s.frontendMs = ms(snap.frontendNs);
  s.groverMs = ms(snap.groverNs);
  s.validateMs = ms(snap.validateNs);
  s.printMs = ms(snap.printNs);
  s.estimateMs = ms(snap.estimateNs);
  s.estimateTraceMs = ms(snap.estimateTraceNs);
  s.estimateDigestMs = ms(snap.estimateDigestNs);
  s.executeMs = ms(snap.executeNs);
  s.cacheMs = ms(snap.cacheNs);
  s.proveMs = ms(snap.proveNs);
  s.proofsRun = snap.proofsRun;
  s.proofsProved = snap.proofsProved;
  s.proofsRefuted = snap.proofsRefuted;
  s.proofsUnknown = snap.proofsUnknown;
  s.proofVetoes = snap.proofVetoes;
  s.staleRemeasures = snap.staleRemeasures;
  s.policyHits = snap.policyHits;
  s.policyMisses = snap.policyMisses;
  s.policyStores = snap.policyStores;
  s.measurements = snap.measurements;
  s.nativeMeasurements = snap.nativeMeasurements;
  s.policyRefreshes = snap.policyRefreshes;
  s.measurementsDropped = snap.measurementsDropped;
  {
    std::lock_guard lock(measure_mutex_);
    s.measureQueueBacklog = measure_queue_.size();
  }
  s.policyFlips = f.flips;
  s.policyMismatches = f.mismatches;
  return s;
}

}  // namespace grover::service
