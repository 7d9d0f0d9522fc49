// End-to-end wiring of the symbolic race prover (DESIGN.md §13): the
// service prove stage and its counters, proof persistence through the
// artifact disk tier and the policy store, the warm-hit no-reprove
// contract, the Refuted-decision veto, confidence decay with age, and
// the stale-contradicted-entry re-measure regression.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>

#include "apps/app.h"
#include "check/kernel_gen.h"
#include "check/validator.h"
#include "grovercl/compiler.h"
#include "net/render.h"
#include "policy/policy_store.h"
#include "service/compile_service.h"
#include "sym/report.h"

namespace grover {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("grover_sym_wiring_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::uint64_t nowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

service::Request appRequest(bool prove) {
  service::Request req;
  req.appId = "NVD-MT";
  req.platform = "SNB";
  req.scale = apps::Scale::Test;
  req.options.prove = prove;
  return req;
}

/// A genuinely racy kernel from the fuzzer's Race family (the local
/// store ignores a dimension the global load depends on).
check::GeneratedKernel racyKernel() {
  check::KernelSpec spec;
  spec.family = check::KernelFamily::Race;
  spec.seed = 7;
  return check::render(check::normalize(spec));
}

// ---- service prove stage -------------------------------------------------

TEST(SymWiring, ProveStagePopulatesArtifactAndCounters) {
  service::CompileService svc;
  const service::ArtifactPtr a = svc.run(appRequest(/*prove=*/true));
  ASSERT_TRUE(a->ok) << a->diagnostics;
  // Both sides were proved; Table I originals must never be Refuted.
  EXPECT_NE(a->proofOriginal, sym::ProofStatus::Unchecked);
  EXPECT_NE(a->proofOriginal, sym::ProofStatus::Refuted);
  EXPECT_NE(a->proofTransformed, sym::ProofStatus::Unchecked);
  EXPECT_NE(a->proofTransformed, sym::ProofStatus::Refuted);
  EXPECT_FALSE(a->proofVetoed);
  const service::ServiceStats s = svc.stats();
  EXPECT_GE(s.proofsRun, 2u);  // original + transformed
  EXPECT_EQ(s.proofsRefuted, 0u);
  EXPECT_EQ(s.proofVetoes, 0u);
}

TEST(SymWiring, WithoutProveArtifactStaysUnchecked) {
  service::CompileService svc;
  const service::ArtifactPtr a = svc.run(appRequest(/*prove=*/false));
  ASSERT_TRUE(a->ok);
  EXPECT_EQ(a->proofOriginal, sym::ProofStatus::Unchecked);
  EXPECT_EQ(a->proofTransformed, sym::ProofStatus::Unchecked);
  EXPECT_EQ(svc.stats().proofsRun, 0u);
}

TEST(SymWiring, ProveIsPartOfTheCacheKey) {
  service::Request with = appRequest(true);
  service::Request without = appRequest(false);
  EXPECT_NE(
      service::CompileService::cacheKey(service::CompileService::resolve(with)),
      service::CompileService::cacheKey(
          service::CompileService::resolve(without)));
}

TEST(SymWiring, ProofGeometryIsPartOfTheCacheKey) {
  // An app request proves under its launch geometry, a raw-source request
  // of the same kernel under a per-kernel one, and the two disagree on
  // AMD-MT. Whichever arrives first must not decide the other's proof.
  const apps::Application& app = apps::applicationById("AMD-MT");
  service::Request appReq;
  appReq.appId = app.id();
  appReq.options.prove = true;
  service::Request rawReq;
  rawReq.source = app.source();
  rawReq.kernelName = app.kernelName();
  rawReq.options.onlyBuffers = app.buffersToDisable();
  rawReq.options.prove = true;
  EXPECT_NE(service::CompileService::cacheKey(
                service::CompileService::resolve(appReq)),
            service::CompileService::cacheKey(
                service::CompileService::resolve(rawReq)));

  const auto statuses = [](const service::ArtifactPtr& a) {
    EXPECT_TRUE(a->ok) << a->diagnostics;
    return std::make_pair(a->proofOriginal, a->proofTransformed);
  };
  const auto alone = [&](const service::Request& req) {
    service::CompileService svc;
    return statuses(svc.run(req));
  };
  const auto appAlone = alone(appReq);
  const auto rawAlone = alone(rawReq);
  ASSERT_NE(appAlone, rawAlone) << "the geometries no longer disagree";
  for (const bool appFirst : {true, false}) {
    SCOPED_TRACE(appFirst ? "app first" : "raw first");
    service::CompileService svc;
    const service::Request& first = appFirst ? appReq : rawReq;
    const service::Request& second = appFirst ? rawReq : appReq;
    const auto firstServed = statuses(svc.run(first));
    const auto secondServed = statuses(svc.run(second));
    EXPECT_EQ(appFirst ? firstServed : secondServed, appAlone);
    EXPECT_EQ(appFirst ? secondServed : firstServed, rawAlone);
  }
}

TEST(SymWiring, RacyOriginalIsRefutedButNotAVeto) {
  // A kernel that was already racy before Grover touched it is the
  // author's bug, not the transform's: Refuted original, no veto.
  const check::GeneratedKernel kernel = racyKernel();
  service::Request req;
  req.source = kernel.source;
  req.options.prove = true;
  service::CompileService svc;
  const service::ArtifactPtr a = svc.run(req);
  ASSERT_TRUE(a->ok) << a->diagnostics;
  EXPECT_EQ(a->proofOriginal, sym::ProofStatus::Refuted);
  EXPECT_FALSE(a->proofVetoed);
  EXPECT_NE(a->proofNote.find("refuted"), std::string::npos) << a->proofNote;
  EXPECT_GE(svc.stats().proofsRefuted, 1u);
}

TEST(SymWiring, ProofRoundTripsThroughTheDiskTier) {
  const std::string dir = freshDir("disk");
  service::ServiceConfig config;
  config.cache.diskDir = dir;
  service::ArtifactPtr cold;
  {
    service::CompileService svc(config);
    cold = svc.run(appRequest(true));
    ASSERT_TRUE(cold->ok);
  }
  service::CompileService warm(config);
  const service::ArtifactPtr reloaded = warm.run(appRequest(true));
  ASSERT_TRUE(reloaded->ok);
  EXPECT_EQ(warm.stats().diskHits, 1u);
  EXPECT_EQ(reloaded->proofOriginal, cold->proofOriginal);
  EXPECT_EQ(reloaded->proofTransformed, cold->proofTransformed);
  EXPECT_EQ(reloaded->proofNote, cold->proofNote);
  EXPECT_EQ(reloaded->proofVetoed, cold->proofVetoed);
  fs::remove_all(dir);
}

// ---- compileAuto: proof in the decision loop -----------------------------

TEST(SymWiring, WarmPolicyHitCarriesProofWithoutReproving) {
  service::CompileService svc;
  const service::AutoResult cold = svc.compileAuto(appRequest(true));
  ASSERT_TRUE(cold.eligible);
  ASSERT_FALSE(cold.policyHit);
  EXPECT_NE(cold.decision.proof, sym::ProofStatus::Unchecked);
  const std::uint64_t proofsAfterCold = svc.stats().proofsRun;
  EXPECT_GE(proofsAfterCold, 2u);

  const service::AutoResult warm = svc.compileAuto(appRequest(true));
  ASSERT_TRUE(warm.policyHit);
  // The <50ms warm-path criterion: the proof rides in the stored
  // decision; the prover itself must not run again.
  EXPECT_EQ(svc.stats().proofsRun, proofsAfterCold);
  EXPECT_EQ(warm.decision.proof, cold.decision.proof);
}

TEST(SymWiring, RefutedWarmDecisionIsForcedToOriginalLoss) {
  service::CompileService svc;
  const service::AutoResult cold = svc.compileAuto(appRequest(true));
  ASSERT_TRUE(cold.eligible);

  // Corrupt the stored decision into a Refuted transform that claims to
  // win: the warm path must serve the original and verdict Loss anyway.
  std::optional<policy::Decision> stored =
      svc.policyStore().lookup(cold.policyKey);
  ASSERT_TRUE(stored.has_value());
  stored->proof = sym::ProofStatus::Refuted;
  stored->variant = policy::Variant::Transformed;
  stored->predictedOutcome = perf::Outcome::Gain;
  svc.policyStore().store(cold.policyKey, *stored);

  const service::AutoResult warm = svc.compileAuto(appRequest(true));
  ASSERT_TRUE(warm.policyHit);
  EXPECT_EQ(warm.decision.variant, policy::Variant::Original);
  EXPECT_EQ(warm.decision.predictedOutcome, perf::Outcome::Loss);
}

TEST(SymWiring, AutoResultLineRendersProof) {
  service::CompileService svc;
  const service::AutoResult r = svc.compileAuto(appRequest(true));
  ASSERT_TRUE(r.eligible);
  const std::string line = net::renderAutoResultLine(r);
  EXPECT_NE(line.find("proof"), std::string::npos) << line;
}

// ---- policy store: proof + age persistence -------------------------------

TEST(SymWiring, PolicyStoreRoundTripsProofAndAge) {
  const std::string dir = freshDir("policy");
  policy::PolicyStore::Config config;
  config.diskDir = dir;
  policy::Decision d;
  d.variant = policy::Variant::Transformed;
  d.predictedNp = 1.4;
  d.confidence = 0.9;
  d.source = "estimate";
  d.proof = sym::ProofStatus::Proved;
  d.storedAtMs = 123456789;
  {
    policy::PolicyStore store(config);
    store.store(42, d);
  }
  policy::PolicyStore fresh(config);
  const std::optional<policy::Decision> back = fresh.lookup(42);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->proof, sym::ProofStatus::Proved);
  EXPECT_EQ(back->storedAtMs, 123456789u);
  fs::remove_all(dir);
}

TEST(SymWiring, StoreStampsUnstampedDecisions) {
  policy::PolicyStore store({});
  policy::Decision d;
  d.confidence = 0.5;
  const std::uint64_t before = nowMs();
  store.store(7, d);  // storedAtMs == 0: the store stamps it
  const std::optional<policy::Decision> back = store.lookup(7);
  ASSERT_TRUE(back.has_value());
  EXPECT_GE(back->storedAtMs, before);
}

// ---- confidence decay ----------------------------------------------------

TEST(SymWiring, ConfidenceHalvesEveryHorizonTowardThePrior) {
  policy::Decision d;
  d.confidence = 0.8;
  d.storedAtMs = 1000;
  const double prior = 0.2;
  // One horizon: (0.8 - 0.2) / 2 + 0.2 = 0.5.
  EXPECT_NEAR(policy::decayedConfidence(d, prior, 1000 + 500, 500), 0.5,
              1e-9);
  // Two horizons: (0.8 - 0.2) / 4 + 0.2 = 0.35.
  EXPECT_NEAR(policy::decayedConfidence(d, prior, 1000 + 1000, 500), 0.35,
              1e-9);
  // Far future: pinned at the prior floor, never below.
  EXPECT_NEAR(policy::decayedConfidence(d, prior, 1000 + 500 * 100, 500),
              prior, 1e-6);
}

TEST(SymWiring, DecayIsDisabledForUnstampedOrNoHorizon) {
  policy::Decision d;
  d.confidence = 0.8;
  d.storedAtMs = 0;  // unstamped: legacy entry
  EXPECT_EQ(policy::decayedConfidence(d, 0.2, 99999, 500), 0.8);
  d.storedAtMs = 1000;
  EXPECT_EQ(policy::decayedConfidence(d, 0.2, 99999, 0), 0.8);
}

TEST(SymWiring, ShouldRemeasureNeedsMismatchAndAge) {
  policy::Decision d;
  d.storedAtMs = 1000;
  d.mismatch = false;
  EXPECT_FALSE(policy::shouldRemeasure(d, 1000 + 5000, 500));
  d.mismatch = true;
  EXPECT_FALSE(policy::shouldRemeasure(d, 1000 + 100, 500));  // too young
  EXPECT_TRUE(policy::shouldRemeasure(d, 1000 + 5000, 500));
  EXPECT_FALSE(policy::shouldRemeasure(d, 1000 + 5000, 0));  // disabled
}

// ---- the satellite regression: stale contradicted entries re-measure -----

TEST(SymWiring, StaleContradictedEntryIsRemeasuredOnWarmHit) {
  service::ServiceConfig config;
  config.policyDecayHorizonMs = 10;
  service::CompileService svc(config);
  const service::AutoResult cold = svc.compileAuto(appRequest(false));
  ASSERT_TRUE(cold.eligible);

  // Age the entry past the horizon and flag it contradicted.
  std::optional<policy::Decision> stored =
      svc.policyStore().lookup(cold.policyKey);
  ASSERT_TRUE(stored.has_value());
  stored->mismatch = true;
  stored->storedAtMs = nowMs() - 60 * 1000;
  svc.policyStore().store(cold.policyKey, *stored);

  const service::AutoResult warm = svc.compileAuto(appRequest(false));
  ASSERT_TRUE(warm.policyHit);
  const service::ServiceStats s = svc.stats();
  EXPECT_EQ(s.staleRemeasures, 1u);
  // The forced measurement ran inline and folded fresh evidence in:
  // the re-stored entry is re-stamped, so it will be trusted again.
  EXPECT_TRUE(warm.measured);
  EXPECT_GE(s.measurements, 1u);
  const std::optional<policy::Decision> refreshed =
      svc.policyStore().lookup(cold.policyKey);
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_GE(refreshed->storedAtMs, nowMs() - 10 * 1000);
}

TEST(SymWiring, FreshEntriesAreNotRemeasured) {
  service::ServiceConfig config;
  config.policyDecayHorizonMs = 60 * 60 * 1000;  // one hour: never stale
  service::CompileService svc(config);
  const service::AutoResult cold = svc.compileAuto(appRequest(false));
  ASSERT_TRUE(cold.eligible);
  const service::AutoResult warm = svc.compileAuto(appRequest(false));
  ASSERT_TRUE(warm.policyHit);
  EXPECT_EQ(svc.stats().staleRemeasures, 0u);
  EXPECT_FALSE(warm.measured);
}

// ---- validator side-channel ----------------------------------------------

TEST(SymWiring, ValidatorSideChannelReportsRefutedTransform) {
  // Hand the validator a racy kernel as if it were a transform result:
  // the symbolic report must come back Refuted and the validation must
  // carry a symbolic-race issue.
  const check::GeneratedKernel kernel = racyKernel();
  Program program = compile(kernel.source);
  ir::Function* fn = nullptr;
  for (const auto& f : program.module->functions()) {
    if (f->isKernel()) fn = f.get();
  }
  ASSERT_NE(fn, nullptr);
  grv::GroverResult result;  // empty: no transform, just the race check
  sym::SymbolicReport report;
  const check::ValidationReport validation =
      check::validateTransform(*fn, result, sym::ProveOptions{}, &report);
  EXPECT_EQ(report.status, sym::ProofStatus::Refuted);
  ASSERT_TRUE(report.witness.has_value());
  EXPECT_TRUE(validation.has("symbolic-race")) << validation.str();
}

}  // namespace
}  // namespace grover
