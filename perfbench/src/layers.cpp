// Per-layer measurements of the traced run: a walk of the cold
// compileAuto path through each layer's public API with a span around
// every layer call, the warm-hit probes, the native probe and the
// program's own counters.
#include <numeric>

#include "bench.h"
#include "check/validator.h"
#include "clc/lexer.h"
#include "clc/parser.h"
#include "clc/sema.h"
#include "codegen/irgen.h"
#include "grover/grover_pass.h"
#include "grovercl/compiler.h"
#include "ir/ir_parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "native/engine.h"
#include "net/client.h"
#include "passes/pass.h"
#include "perf/estimator.h"
#include "perf/platform.h"
#include "policy/decision_engine.h"
#include "policy/features.h"
#include "support/diagnostics.h"
#include "sym/prover.h"
#include "sym/witness_check.h"

namespace perfbench {
namespace {

using grover::Program;

/// compileWithDiags, split at the clc / codegen / passes boundaries.
Program frontend(const std::string& source, Tracer& tracer) {
  auto fe = tracer.span("frontend.compile");
  Program p;
  p.context = std::make_unique<grover::ir::Context>();
  grover::DiagnosticEngine diags;
  std::unique_ptr<grover::clc::TranslationUnit> tu;
  {
    auto s = tracer.span("clc.parse");
    grover::clc::Lexer lexer(source, diags);
    grover::clc::Parser parser(lexer.tokens(), diags);
    tu = parser.parse();
    grover::clc::Sema sema(*p.context, diags);
    if (diags.hasErrors() || !sema.check(*tu)) {
      throw grover::GroverError("front-end failed: " + diags.str());
    }
  }
  {
    auto s = tracer.span("codegen.irgen");
    p.module = std::make_unique<grover::ir::Module>(*p.context, "program");
    grover::codegen::IRGen irgen(*p.module, diags);
    irgen.emit(*tu);
    if (diags.hasErrors()) {
      throw grover::GroverError("codegen failed: " + diags.str());
    }
    grover::ir::verifyModule(*p.module);
  }
  {
    auto s = tracer.span("passes.pipeline");
    grover::passes::PassManager pm(true);
    grover::passes::addStandardPipeline(pm);
    pm.run(*p.module);
  }
  return p;
}

std::size_t instructionCount(const grover::ir::Function& fn) {
  std::size_t n = 0;
  for (const auto& bb : fn.blocks()) n += bb->size();
  return n;
}

struct WalkCounts {
  std::uint64_t insts = 0, buffersTransformed = 0, textBytes = 0;
  std::uint64_t symRuns = 0, symDecided = 0, symPairs = 0;
  std::uint64_t rtInsts = 0, gpuTransactions = 0, cpuEstimates = 0;
  double l1HitRateSum = 0;
};

/// One cold decision, layer by layer, in the order compileAuto runs it.
grover::policy::Decision walkOne(const Key& key, std::uint64_t id,
                                 Tracer& tracer, WalkCounts& counts) {
  namespace perf = grover::perf;
  const grover::apps::Application& app =
      grover::apps::applicationById(key.app);
  const perf::PlatformSpec spec = *perf::findPlatform(key.platform);
  const std::string kernelName = app.kernelName();
  grover::grv::GroverOptions options;
  options.onlyBuffers = app.buffersToDisable();
  options.prove = true;

  auto root = tracer.span("request", id);
  // The feature compile of the policy path.
  Program featureProgram = frontend(app.source(), tracer);
  counts.insts += instructionCount(*featureProgram.kernel(kernelName));
  grover::policy::KernelFeatures features;
  {
    auto s = tracer.span("policy.features");
    const grover::apps::Instance instance = app.makeInstance(key.scale);
    features = grover::policy::extractFeatures(
        *featureProgram.kernel(kernelName), &instance.range);
    (void)grover::policy::featureKey(features, spec.name, 0);
  }
  // The cached pipeline: both variants.
  Program original = frontend(app.source(), tracer);
  Program transformed = frontend(app.source(), tracer);
  grover::ir::Function& origKernel = *original.kernel(kernelName);
  grover::ir::Function& transKernel = *transformed.kernel(kernelName);
  grover::grv::GroverResult result;
  {
    auto s = tracer.span("grover.run");
    result = grover::grv::runGrover(transKernel, options);
  }
  for (const auto& b : result.buffers) counts.buffersTransformed += b.transformed;
  {
    auto s = tracer.span("check.validate");
    const auto report = grover::check::validateTransform(transKernel, result);
    if (!report.ok()) throw grover::GroverError(report.str());
  }
  {
    auto s = tracer.span("ir.print");
    counts.textBytes += grover::ir::printModule(*original.module).size();
    counts.textBytes += grover::ir::printModule(*transformed.module).size();
  }
  grover::sym::ProofStatus proofs[2];
  {
    const grover::apps::Instance instance = app.makeInstance(key.scale);
    const auto popts =
        grover::sym::proveOptionsForLaunch(instance.range, instance.args);
    grover::ir::Function* fns[2] = {&origKernel, &transKernel};
    for (int i = 0; i < 2; ++i) {
      auto s = tracer.span("sym.prove");
      const auto report = grover::sym::proveRaceFreedom(*fns[i], popts);
      proofs[i] = report.status;
      ++counts.symRuns;
      counts.symDecided += report.status != grover::sym::ProofStatus::Unknown;
      counts.symPairs += report.pairs;
    }
  }
  const bool gpu = spec.kind == perf::PlatformKind::GpuSpm;
  const std::string estimateSpan =
      gpu ? "perf.estimate_gpu" : "perf.estimate_cpu";
  perf::PerfEstimate estimates[2];
  grover::ir::Function* fns[2] = {&origKernel, &transKernel};
  for (int i = 0; i < 2; ++i) {
    auto s = tracer.span(estimateSpan);
    grover::apps::Instance instance = app.makeInstance(key.scale);
    estimates[i] = perf::estimate(spec, *fns[i], instance.range, instance.args,
                                  instance.benchSampleStride, 1);
  }
  for (const auto& e : estimates) {
    counts.rtInsts += e.counters.total();
    counts.gpuTransactions += e.transactions;
    if (!gpu) {
      ++counts.cpuEstimates;
      counts.l1HitRateSum += e.l1HitRate;
    }
  }
  grover::policy::Decision decision;
  {
    auto s = tracer.span("policy.decide");
    decision = grover::policy::DecisionEngine().decide(
        features, spec, {estimates[0].cycles, estimates[1].cycles});
  }
  // The prover's veto, as the service applies it.
  if (proofs[0] != grover::sym::ProofStatus::Refuted &&
      proofs[1] == grover::sym::ProofStatus::Refuted) {
    decision.variant = grover::policy::Variant::Original;
    decision.predictedOutcome = perf::Outcome::Loss;
  }
  return decision;
}

void checkVerdict(const ExpectedVerdicts& expected, const Key& key,
                  const grover::policy::Decision& d, const char* where,
                  std::vector<std::string>& errors) {
  const auto it = expected.find(key.line());
  const std::string outcome = grover::perf::toString(d.predictedOutcome);
  const std::string variant = grover::policy::toString(d.variant);
  if (it == expected.end() || it->second.outcome != outcome ||
      it->second.variant != variant) {
    errors.push_back(std::string(where) + " verdict mismatch for " +
                     key.line() + ": " + outcome + " " + variant);
  }
}

}  // namespace

LayerWalk walkLayers(const std::vector<Key>& keys,
                     const ExpectedVerdicts& expected, Tracer& tracer) {
  LayerWalk out;
  // Each key is decided three times: through the service (the untraced
  // reference of the stage cross-check), and layer by layer with tracing
  // off and on. The two walks alternate which goes first so neither side
  // always meets warmer caches; their difference is the tracing overhead.
  std::vector<double> serviceMs, untracedMs, tracedMs;
  WalkCounts counts, untracedCounts;
  Tracer off(false);
  grover::service::CompileService service;
  const std::size_t firstSpan = tracer.records().size();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Key& key = keys[i];
    const auto t0 = Clock::now();
    const auto r = service.compileAuto(key.request(true));
    serviceMs.push_back(msBetween(t0, Clock::now()));
    if (!r.eligible || r.artifact == nullptr || !r.artifact->ok) {
      out.errors.push_back("service cold decision failed: " + key.line());
    } else {
      checkVerdict(expected, key, r.decision, "service", out.errors);
    }
    for (int leg = 0; leg < 2; ++leg) {
      const bool traced = (leg == 0) == (i % 2 == 0);
      const auto w0 = Clock::now();
      const auto d = walkOne(key, i + 1, traced ? tracer : off,
                             traced ? counts : untracedCounts);
      (traced ? tracedMs : untracedMs).push_back(msBetween(w0, Clock::now()));
      checkVerdict(expected, key, d, traced ? "traced" : "untraced",
                   out.errors);
    }
  }
  const grover::service::ServiceStats stats = service.stats();

  auto& m = out.metrics;
  const auto mean = [&](const std::string& span) {
    const std::size_t n = tracer.count(span);
    return n == 0 ? 0.0 : tracer.totalMs(span) / static_cast<double>(n);
  };
  const double n = static_cast<double>(keys.size());
  m.push_back({"frontend.compile_ms", mean("frontend.compile"), "ms"});
  m.push_back({"clc.parse_ms", mean("clc.parse"), "ms"});
  m.push_back({"codegen.irgen_ms", mean("codegen.irgen"), "ms"});
  m.push_back({"passes.pipeline_ms", mean("passes.pipeline"), "ms"});
  m.push_back({"ir.insts_after_passes", static_cast<double>(counts.insts) / n,
               "count"});
  m.push_back({"grover.run_ms", mean("grover.run"), "ms"});
  m.push_back({"grover.buffers_transformed",
               static_cast<double>(counts.buffersTransformed), "count"});
  m.push_back({"check.validate_ms", mean("check.validate"), "ms"});
  m.push_back({"sym.prove_ms", mean("sym.prove"), "ms"});
  m.push_back({"sym.runs", static_cast<double>(counts.symRuns), "count"});
  m.push_back({"sym.pairs", static_cast<double>(counts.symPairs), "count"});
  m.push_back({"sym.decided_ratio",
               counts.symRuns == 0 ? 0.0
                                   : static_cast<double>(counts.symDecided) /
                                         static_cast<double>(counts.symRuns),
               "ratio"});
  m.push_back({"perf.estimate_cpu_ms", mean("perf.estimate_cpu"), "ms"});
  m.push_back({"perf.estimate_gpu_ms", mean("perf.estimate_gpu"), "ms"});
  m.push_back({"rt.insts_executed", static_cast<double>(counts.rtInsts),
               "count"});
  m.push_back({"perf.cpu_estimates", static_cast<double>(counts.cpuEstimates),
               "count"});
  m.push_back({"perf.l1_hit_rate",
               counts.cpuEstimates == 0
                   ? 0.0
                   : counts.l1HitRateSum /
                         static_cast<double>(counts.cpuEstimates),
               "ratio"});
  m.push_back({"perf.gpu_transactions",
               static_cast<double>(counts.gpuTransactions), "count"});
  m.push_back({"ir.print_ms", mean("ir.print"), "ms"});
  m.push_back({"ir.text_bytes", static_cast<double>(counts.textBytes) / n,
               "bytes"});
  m.push_back({"policy.features_ms", mean("policy.features"), "ms"});
  m.push_back({"policy.decide_ms", mean("policy.decide"), "ms"});

  // Self time per layer over the walk's spans only.
  const std::map<std::string, double> self = tracer.selfMsByLayer(firstSpan);
  double selfTotal = 0;
  for (const auto& [layer, ms] : self) selfTotal += ms;
  m.push_back({"self.total_ms", selfTotal, "ms"});
  for (const char* layer : {"clc", "codegen", "passes", "policy", "grover",
                            "check", "ir", "sym", "perf", "request",
                            "frontend"}) {
    const double ms = self.count(layer) != 0 ? self.at(layer) : 0.0;
    m.push_back({std::string("self.") + layer + "_share",
                 selfTotal > 0 ? ms / selfTotal : 0.0, "ratio"});
  }

  // Tracing overhead: the median over keys of traced minus untraced walk
  // time. It reads below zero when the spans cost less than the walk's
  // run-to-run noise.
  std::vector<double> overheadMs;
  for (std::size_t i = 0; i < tracedMs.size(); ++i) {
    overheadMs.push_back(tracedMs[i] - untracedMs[i]);
  }
  m.push_back({"trace.overhead_ms", median(overheadMs), "ms"});
  m.push_back({"trace.untraced_request_ms",
               std::accumulate(serviceMs.begin(), serviceMs.end(), 0.0) / n,
               "ms"});
  // Cross-check: the service's own stage sums against the spans of the
  // same stages (frontend excluded: the walk also times the policy
  // path's feature compile, which the service does not stage-time).
  const double stageSum =
      stats.groverMs + stats.printMs + stats.estimateMs + stats.proveMs;
  const double spanSum = tracer.totalMs("grover.run") +
                         tracer.totalMs("ir.print") +
                         tracer.totalMs("perf.estimate_cpu") +
                         tracer.totalMs("perf.estimate_gpu") +
                         tracer.totalMs("sym.prove");
  m.push_back({"xcheck.stage_sum_ms", stageSum, "ms"});
  m.push_back({"xcheck.stage_to_span_ratio",
               spanSum > 0 ? stageSum / spanSum : 0.0, "ratio"});
  return out;
}

HitProbe probeWarmHits(grover::service::CompileService& service,
                       std::uint16_t port, const std::vector<Key>& keys,
                       bool prove, Tracer& tracer) {
  constexpr int kRounds = 3;
  std::vector<grover::service::CompileService::Future> warming;
  for (const Key& key : keys) warming.push_back(service.submit(key.request(prove)));
  for (auto& f : warming) (void)f.get();
  std::vector<double> direct;
  for (int round = 0; round < kRounds; ++round) {
    for (const Key& key : keys) {
      auto s = tracer.span("service.submit_hit");
      const auto t0 = Clock::now();
      const auto artifact = service.submit(key.request(prove)).get();
      direct.push_back(msBetween(t0, Clock::now()) * 1e3);
      if (artifact == nullptr || !artifact->ok) {
        throw grover::GroverError("warm probe failed: " + key.line());
      }
    }
  }
  grover::net::Client client;
  client.connect("127.0.0.1:" + std::to_string(port));
  std::vector<double> rtt;
  std::uint64_t id = 1;
  for (int round = 0; round < kRounds; ++round) {
    for (const Key& key : keys) {
      auto s = tracer.span("net.rtt");
      const auto t0 = Clock::now();
      client.sendFrame(grover::net::FrameType::Request, id++, key.line());
      const grover::net::Frame f = client.readFrame();
      rtt.push_back(msBetween(t0, Clock::now()) * 1e3);
      grover::net::Status status{};
      std::string_view text;
      if (!grover::net::splitStatusPayload(f.payload, status, text) ||
          status != grover::net::Status::Ok) {
        throw grover::GroverError("wire probe failed: " + key.line());
      }
    }
  }
  client.close();
  return {median(direct), median(rtt)};
}

void probeNative(const std::vector<ServedVariant>& served,
                 const std::string& cacheDir, Tracer& tracer,
                 std::vector<Metric>& metrics,
                 std::vector<std::string>& errors) {
  grover::native::JitOptions jit;
  jit.cacheDir = cacheDir;
  grover::native::NativeEngine engine(jit);
  std::uint64_t executed = 0;
  double execMs = 0;
  for (const ServedVariant& s : served) {
    if (!engine.available()) break;
    const grover::apps::Application& app =
        grover::apps::applicationById(s.app);
    grover::ir::Context ctx;
    auto module = grover::ir::parseModule(ctx, s.irText);
    grover::ir::Function* fn = module->findFunction(app.kernelName());
    grover::apps::Instance instance =
        app.makeInstance(grover::apps::Scale::Test);
    grover::rt::KernelImage image(*fn, instance.range, instance.args);
    std::string reason;
    std::shared_ptr<const grover::native::CompiledKernel> kernel;
    {
      auto span = tracer.span("native.jit");
      kernel = engine.prepare(image, reason);
    }
    if (kernel == nullptr) continue;  // refused: counted by the engine
    {
      auto span = tracer.span("native.exec");
      const auto t0 = Clock::now();
      kernel->execute(image);
      execMs += msBetween(t0, Clock::now());
    }
    ++executed;
    std::string message;
    if (!instance.validate(message)) {
      errors.push_back("native " + s.app + " " + s.variant + ": " + message);
    }
  }
  const grover::native::EngineStats st = engine.stats();
  metrics.push_back({"native.kernels_compiled",
                     static_cast<double>(st.jit.compiles), "count"});
  metrics.push_back({"native.refused", static_cast<double>(st.refused),
                     "count"});
  metrics.push_back(
      {"native.jit_compile_ms",
       st.jit.compiles == 0 ? 0.0
                            : st.jit.compileMs /
                                  static_cast<double>(st.jit.compiles),
       "ms"});
  metrics.push_back(
      {"native.exec_ms",
       executed == 0 ? 0.0 : execMs / static_cast<double>(executed), "ms"});
}

void appendProgramCounters(const grover::service::ServiceStats& before,
                           const grover::service::ServiceStats& after,
                           const grover::policy::PolicyStore::Stats& policy,
                           const grover::net::ServerStats& s,
                           std::vector<Metric>& metrics) {
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double requests = d(before.requests, after.requests);
  metrics.push_back({"service.requests", requests, "count"});
  metrics.push_back(
      {"service.cache_hit_ratio",
       requests > 0 ? d(before.memoryHits, after.memoryHits) / requests : 0.0,
       "ratio"});
  metrics.push_back(
      {"service.coalesced", d(before.coalesced, after.coalesced), "count"});
  metrics.push_back(
      {"service.evictions", d(before.evictions, after.evictions), "count"});
  metrics.push_back(
      {"service.compiles", d(before.compiles, after.compiles), "count"});
  const std::pair<const char*, double grover::service::ServiceStats::*>
      stages[] = {{"frontend", &grover::service::ServiceStats::frontendMs},
                  {"grover", &grover::service::ServiceStats::groverMs},
                  {"validate", &grover::service::ServiceStats::validateMs},
                  {"print", &grover::service::ServiceStats::printMs},
                  {"estimate", &grover::service::ServiceStats::estimateMs},
                  {"execute", &grover::service::ServiceStats::executeMs},
                  {"cache", &grover::service::ServiceStats::cacheMs},
                  {"prove", &grover::service::ServiceStats::proveMs}};
  // The stage sums as their total and each stage's share of it: a stage
  // a workload never reaches reads as a zero share, not a zero time.
  double stageTotal = 0;
  for (const auto& [name, field] : stages) {
    stageTotal += after.*field - before.*field;
  }
  metrics.push_back({"service.stage_total_ms", stageTotal, "ms"});
  for (const auto& [name, field] : stages) {
    metrics.push_back(
        {std::string("service.stage_") + name + "_share",
         stageTotal > 0 ? (after.*field - before.*field) / stageTotal : 0.0,
         "ratio"});
  }
  const double lookups = static_cast<double>(policy.hits + policy.misses);
  metrics.push_back({"policy.store_lookups", lookups, "count"});
  metrics.push_back(
      {"policy.store_hit_ratio",
       lookups > 0 ? static_cast<double>(policy.hits) / lookups : 0.0,
       "ratio"});
  metrics.push_back(
      {"policy.stores", d(before.policyStores, after.policyStores), "count"});
  const double folded = d(before.measurements, after.measurements);
  const double samples =
      folded + d(before.measurementsDropped, after.measurementsDropped);
  metrics.push_back({"service.measure_samples", samples, "count"});
  metrics.push_back({"service.measure_folded_ratio",
                     samples > 0 ? folded / samples : 0.0, "ratio"});
  metrics.push_back(
      {"net.frames_in", static_cast<double>(s.framesReceived), "count"});
  metrics.push_back(
      {"net.frames_out", static_cast<double>(s.responsesSent), "count"});
  metrics.push_back({"net.rejected_overload",
                     static_cast<double>(s.rejectedOverload), "count"});
  metrics.push_back({"net.read_budget_exhausted",
                     static_cast<double>(s.readBudgetExhausted), "count"});
}

}  // namespace perfbench
