// The two workloads. Each one sets up what it needs (timed, into setup_s),
// drives a closed loop of in-process compileAuto requests, checks every
// answer against the expected-verdict file, and runs the correctness gate
// outside the timed region. With --trace 1 it drives half as much traffic
// and spends the rest on the per-layer measurements of layers.cpp.
#include <algorithm>
#include <filesystem>
#include <numeric>
#include <thread>

#include "bench.h"
#include "policy/policy_store.h"
#include "support/diagnostics.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using grover::apps::Scale;
using grover::service::CompileService;
using grover::service::ServiceConfig;

/// Set-ups per policy_hit run; setup_s is their median.
constexpr int kSetups = 3;

/// A single-loop server with default settings in front of a service, for
/// the traced run's wire probe.
struct Daemon {
  grover::net::Server server;
  std::thread loop;
  std::string loopError;

  Daemon(CompileService& service, const grover::net::ServerConfig& config)
      : server(service, config) {
    server.bind();
    loop = std::thread([this] {
      try {
        server.run();
      } catch (const std::exception& e) {
        loopError = e.what();
      }
    });
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  void stop() {
    if (loop.joinable()) {
      server.requestStop();
      loop.join();
    }
  }
};

std::string freshDir(const Options& o, const std::string& name) {
  const fs::path p = fs::path(o.workDir) / name;
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

double secondsSince(Clock::time_point t0) {
  return msBetween(t0, Clock::now()) / 1e3;
}

/// Closed-loop traffic: passes over the 66 Test keys in a seeded order per
/// pass until the next pass would overrun `budget` seconds. `setUp` runs
/// before each pass (untimed in the latencies) and returns the service
/// the pass talks to.
struct Traffic {
  /// Latencies of each key (allKeys order), one per pass.
  std::vector<std::vector<double>> keyMs;
  std::uint64_t checked = 0, agreed = 0;
};

Traffic drive(const Options& o, const ExpectedVerdicts& expected,
              double budget, bool wantPolicyHit,
              const std::function<CompileService&(std::uint64_t)>& setUp,
              std::vector<ServedVariant>& served, RunResult& res) {
  const std::vector<Key> keys = allKeys(Scale::Test);
  Traffic t;
  t.keyMs.resize(keys.size());
  const auto t0 = Clock::now();
  for (std::uint64_t pass = 0;; ++pass) {
    const double elapsed = secondsSince(t0);
    if (pass > 0 && elapsed + elapsed / static_cast<double>(pass) > budget) {
      break;
    }
    std::vector<std::size_t> order(keys.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    Rng(o.seed * 1000003 + pass).shuffle(order);
    CompileService& service = setUp(pass);
    for (const std::size_t k : order) {
      const Key& key = keys[k];
      const auto a = Clock::now();
      const grover::service::AutoResult r =
          service.compileAuto(key.request(true));
      t.keyMs[k].push_back(msBetween(a, Clock::now()));
      ++res.attempted;
      if (!r.eligible || r.artifact == nullptr || !r.artifact->ok ||
          r.policyHit != wantPolicyHit) {
        ++res.failed;
        res.errors.push_back(std::string(wantPolicyHit ? "policy hit"
                                                       : "cold decision") +
                             " failed: " + key.line());
        continue;
      }
      ++t.checked;
      const std::string outcome =
          grover::perf::toString(r.decision.predictedOutcome);
      const std::string variant = grover::policy::toString(r.decision.variant);
      const auto it = expected.find(key.line());
      if (it != expected.end() && it->second.outcome == outcome &&
          it->second.variant == variant) {
        ++t.agreed;
      } else {
        res.errors.push_back("verdict mismatch: " + key.line() + " -> " +
                             outcome + " " + variant);
      }
      rememberServed(served, r, key.app);
    }
  }
  return t;
}

/// Every pass does the same work, one request at a time, and the program
/// runs nothing else meanwhile, so the host can only slow a request down:
/// each key's latency is the fastest of its passes, and the end-to-end
/// latencies are taken over those per-key figures.
void addEndToEnd(RunResult& res, double setupS, const Traffic& t) {
  std::vector<double> keyMs, all;
  for (const std::vector<double>& samples : t.keyMs) {
    keyMs.push_back(*std::min_element(samples.begin(), samples.end()));
    all.insert(all.end(), samples.begin(), samples.end());
  }
  const double passMs = std::accumulate(keyMs.begin(), keyMs.end(), 0.0);
  res.add("setup_s", setupS, "s");
  res.add("p50_ms", median(keyMs), "ms");
  // The tail is the highest percentile with ten keys beyond it: the 56th
  // of the 66 keys (p84).
  std::sort(keyMs.begin(), keyMs.end());
  res.add("tail_ms", keyMs[keyMs.size() - 11], "ms");
  res.add("throughput_rps",
          passMs > 0 ? static_cast<double>(keyMs.size()) / (passMs / 1e3)
                     : 0.0,
          "1/s");
  res.add("ok_ratio",
          res.attempted == 0
              ? 0.0
              : static_cast<double>(res.attempted - res.failed) /
                    static_cast<double>(res.attempted),
          "ratio");
  res.add("verdict_agreement",
          t.checked == 0 ? 0.0
                         : static_cast<double>(t.agreed) /
                               static_cast<double>(t.checked),
          "ratio");
  res.add("peak_rss_mb", peakRssMb(), "MiB");
  const Percentiles lat = percentiles(all);
  res.notes.push_back("over all " + std::to_string(lat.count) +
                      " requests: p50 " + std::to_string(lat.p50) +
                      " ms, p90 " + std::to_string(lat.p90) + " ms, p99 " +
                      std::to_string(lat.p99) + " ms; " +
                      std::to_string(t.keyMs.front().size()) + " passes");
}

/// Per-layer metrics of every traced run: the program's counters over the
/// workload's traffic, the warm-hit probes through a server put in front
/// of the same service, the layer walk and the native probe.
void addPerLayer(RunResult& res, const Options& o,
                 const ExpectedVerdicts& expected, Tracer& tracer,
                 CompileService& service,
                 const grover::service::ServiceStats& before,
                 const std::vector<ServedVariant>& served) {
  res.metrics.clear();
  const grover::service::ServiceStats after = service.stats();
  const grover::policy::PolicyStore::Stats policy =
      service.policyStore().stats();
  const std::vector<Key> keys = allKeys(Scale::Test);
  grover::net::ServerConfig config;
  config.prove = true;  // the wire keys must match the cached ones
  Daemon daemon(service, config);
  const HitProbe hits =
      probeWarmHits(service, daemon.server.port(), keys, true, tracer);
  const grover::net::ServerStats serverStats = daemon.server.stats();
  daemon.stop();  // joins the loop thread before its error is read
  if (!daemon.loopError.empty()) res.errors.push_back(daemon.loopError);
  appendProgramCounters(before, after, policy, serverStats, res.metrics);
  res.add("service.direct_hit_us", hits.directHitUs, "us");
  res.add("net.wire_rtt_us", hits.wireRttUs, "us");
  res.add("net.overhead_us", hits.wireRttUs - hits.directHitUs, "us");
  LayerWalk walk = walkLayers(keys, expected, tracer);
  res.metrics.insert(res.metrics.end(), walk.metrics.begin(),
                     walk.metrics.end());
  res.errors.insert(res.errors.end(), walk.errors.begin(), walk.errors.end());
  probeNative(served, freshDir(o, "native-probe"), tracer, res.metrics,
              res.errors);
  res.add("trace.spans", static_cast<double>(tracer.records().size()),
          "count");
}

/// Learn every key's decision (prove on) into `policyDir`; each learned
/// verdict must equal the expected one. One caller and one pool worker:
/// with more, which thread's allocator arena a compile lands in varies
/// from run to run, and so does the process's peak RSS.
void learn(const std::string& policyDir, const std::string& artifactDir,
           const ExpectedVerdicts& expected, RunResult& res) {
  ServiceConfig config;
  config.workers = 1;
  config.cache.diskDir = artifactDir;
  config.policyStore.diskDir = policyDir;
  CompileService learner(config);
  for (const Key& key : allKeys(Scale::Test)) {
    const auto r = learner.compileAuto(key.request(true));
    const auto it = expected.find(key.line());
    if (!r.eligible || r.artifact == nullptr || !r.artifact->ok ||
        it == expected.end() ||
        it->second.outcome !=
            grover::perf::toString(r.decision.predictedOutcome) ||
        it->second.variant != grover::policy::toString(r.decision.variant)) {
      res.errors.push_back("learned verdict mismatch: " + key.line());
    }
  }
}

}  // namespace

RunResult runColdDecide(const Options& o, const ExpectedVerdicts& expected) {
  RunResult res;
  Tracer tracer(o.trace);
  std::vector<double> setupS;
  std::vector<ServedVariant> served;
  std::unique_ptr<CompileService> service;
  // A fresh default service per pass: every request is a first touch.
  const Traffic t = drive(
      o, expected, o.trace ? o.seconds / 2 : o.seconds, false,
      [&](std::uint64_t) -> CompileService& {
        service.reset();
        const auto s0 = Clock::now();
        service = std::make_unique<CompileService>();
        setupS.push_back(secondsSince(s0));
        return *service;
      },
      served, res);
  validateServed(served, res.errors);
  addEndToEnd(res, median(setupS), t);
  if (o.trace) {
    addPerLayer(res, o, expected, tracer, *service, {}, served);
    tracer.write(o.traceOut);
  }
  return res;
}

RunResult runPolicyHit(const Options& o, const ExpectedVerdicts& expected) {
  RunResult res;
  Tracer tracer(o.trace);
  std::vector<double> setupS;
  std::unique_ptr<CompileService> service;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    const std::string dir = "setup" + std::to_string(i);
    const std::string policyDir = freshDir(o, dir + "/policy");
    const std::string learnedArtifacts = freshDir(o, dir + "/learned");
    ServiceConfig config;
    // An empty artifact disk tier: the learner's full artifacts stay out
    // of reach, so every policy hit rebuilds the winning variant.
    config.cache.diskDir = freshDir(o, dir + "/artifacts");
    config.policyStore.diskDir = policyDir;
    const auto s0 = Clock::now();
    learn(policyDir, learnedArtifacts, expected, res);
    service = std::make_unique<CompileService>(config);
    // Preload: the first lookup of each key reads its decision from disk.
    for (const Key& key : allKeys(Scale::Test)) {
      if (!service->compileAuto(key.request(true)).policyHit) {
        res.errors.push_back("not learned: " + key.line());
      }
    }
    setupS.push_back(secondsSince(s0));
  }
  if (!res.errors.empty()) return res;

  std::vector<ServedVariant> served;
  const auto before = service->stats();
  const Traffic t = drive(
      o, expected, o.trace ? o.seconds / 2 : o.seconds, true,
      [&](std::uint64_t) -> CompileService& { return *service; }, served,
      res);
  validateServed(served, res.errors);
  addEndToEnd(res, median(setupS), t);
  if (o.trace) {
    addPerLayer(res, o, expected, tracer, *service, before, served);
    tracer.write(o.traceOut);
  }
  return res;
}

}  // namespace perfbench
