// groverc — command-line front-end for the Grover pass.
//
// Usage:
//   groverc <kernel.cl> [--kernel=<name>] [--only=<buffer>]...
//           [--keep-barriers] [--no-cleanup] [--before] [--report-only]
//   groverc --app=<id> [--platform=<name>] [--scale=test|bench]
//           [--threads=N] [--native]
//   groverc --serve-batch=<file> [--threads=N] [--repeat=K]
//           [--cache-mb=M] [--cache-dir=DIR] [--auto] [--policy-dir=DIR]
//           [--measure-rate=<f>] [--connect=<host:port|socket>]
//   groverc --connect=<spec> --stats[-json]
//
// The first form reads an OpenCL C kernel, runs the full pipeline
// (front-end → SSA → Grover), prints the Table III-style index report, and
// dumps the transformed IR (and optionally the original IR with --before).
// The second form runs the with/without-local-memory performance
// comparison for one of the built-in Table I applications on a platform
// model, using --threads host threads for the trace-driven estimation.
// The third form reads a request file (one request per line), serves all
// requests concurrently through the compilation service, and reports
// throughput plus cache effectiveness (see tools/README.md). With
// --connect the same batch is shipped to a running groverd daemon
// instead of an in-process service.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.h"
#include "grover/grover_pass.h"
#include "grover/usage_analysis.h"
#include "grovercl/compiler.h"
#include "grovercl/harness.h"
#include "ir/printer.h"
#include "native/engine.h"
#include "net/batch.h"
#include "net/client.h"
#include "net/render.h"
#include "net/wire.h"
#include "perf/measure.h"
#include "perf/platform.h"
#include "policy/policy_store.h"
#include "service/compile_service.h"
#include "sym/prover.h"
#include "sym/witness_check.h"
#include "support/diagnostics.h"
#include "support/io.h"
#include "support/str.h"
#include "support/version.h"

namespace {

void usage() {
  std::cerr <<
      "usage: groverc <kernel.cl> [options]\n"
      "       groverc --app=<id> [--platform=<name>] [options]\n"
      "  --kernel=<name>   transform only this kernel (default: all)\n"
      "  --only=<buffer>   only disable this __local buffer (repeatable)\n"
      "  --keep-barriers   do not remove redundant barriers\n"
      "  --no-cleanup      skip the DCE sweep after the transformation\n"
      "  --validate        run the post-Grover semantic validator (and the\n"
      "                    IR verifier after every stage); fails on any\n"
      "                    violation\n"
      "  --prove           run the symbolic barrier/race prover on every\n"
      "                    kernel before and after the transform; a\n"
      "                    transform that turns a race-free kernel into a\n"
      "                    refuted one is vetoed (exit 1). With\n"
      "                    --serve-batch the veto serves the original\n"
      "                    instead\n"
      "  --prove-apps      prove every built-in Table I application\n"
      "                    (original + transformed, real launch geometry);\n"
      "                    exit 1 on a refuted original or a witness the\n"
      "                    interpreter contradicts — the CI prove-sweep\n"
      "  --prove-report=<f> with --prove-apps: write the full symbolic\n"
      "                    reports to <f> (CI artifact)\n"
      "  --before          also print the IR before the transformation\n"
      "  --report-only     print the index report, no IR\n"
      "  --analyze         only classify local-memory usage, no transform\n"
      "  --app=<id>        estimate a built-in app (e.g. NVD-MT); see\n"
      "                    --list-apps\n"
      "  --platform=<name> platform model: SNB, Nehalem, MIC, Fermi,\n"
      "                    Kepler, Tahiti, or 'all' (default: all)\n"
      "  --scale=<s>       dataset scale: test or bench (default: bench)\n"
      "  --threads=N       host threads for execution and trace digestion\n"
      "                    (default: all hardware threads; estimates are\n"
      "                    identical for every N)\n"
      "  --native          with --app: execute both kernel versions for\n"
      "                    real (JIT-compiled native code when a system C\n"
      "                    compiler is available, the decoded interpreter\n"
      "                    otherwise) and report measured times instead of\n"
      "                    the platform-model estimate\n"
      "  --list-apps       print the built-in application ids\n"
      "  --serve-batch=<f> serve a request file through the compilation\n"
      "                    service (one request per line; see\n"
      "                    tools/README.md)\n"
      "  --repeat=K        replay the batch K times (default 1)\n"
      "  --cache-mb=M      service cache byte budget in MiB, artifacts and\n"
      "                    kernel entries together (default 256)\n"
      "  --cache-dir=DIR   enable the on-disk artifact cache tier\n"
      "  --auto            route serve-batch requests through the policy\n"
      "                    engine: warm per-kernel/per-platform decisions\n"
      "                    compile only the winning variant\n"
      "  --policy-dir=DIR  persist policy decisions on disk (with --auto)\n"
      "  --policy-horizon-ms=<ms>  with --auto: confidence half-life of\n"
      "                    stored decisions; stale contradicted entries\n"
      "                    re-measure instead of being trusted (default\n"
      "                    0 = no decay)\n"
      "  --measure-rate=<f> with --auto: execute this fraction (0..1] of\n"
      "                    served requests for real and fold the measured\n"
      "                    np back into the decision store\n"
      "  --connect=<spec>  with --serve-batch: ship the requests to a\n"
      "                    running groverd daemon at <host:port> or a\n"
      "                    unix socket path instead of serving them\n"
      "                    in-process (--auto and --repeat apply; cache/\n"
      "                    policy/measure flags are daemon-side)\n"
      "  --stats           with --connect: fetch the daemon's binary\n"
      "                    stats/health frame and print it as text\n"
      "  --stats-json      like --stats, as one JSON object\n"
      "  --version         print the build version and exit\n";
}

using grover::readTextFile;

void printReport(const grover::grv::GroverResult& result) {
  for (const auto& b : result.buffers) {
    std::cout << "buffer '" << b.bufferName << "': "
              << (b.transformed ? "local memory disabled" : "refused");
    if (!b.transformed) std::cout << " (" << b.reason << ")";
    std::cout << "\n";
    if (!b.transformed) continue;
    std::cout << "  GL  index: " << b.glIndex << "\n"
              << "  LS  index: " << b.lsIndex << "   ["
              << toString(b.lsPattern) << "]\n"
              << "  LL  index: " << b.llIndex << "   ["
              << toString(b.llPattern) << "]\n"
              << "  solution : " << b.solution << "\n"
              << "  nGL index: " << b.nglIndex << "\n"
              << "  staging pairs: " << b.numStagingPairs
              << ", local loads rewritten: " << b.numLocalLoads << "\n";
  }
  if (result.barriersRemoved) {
    std::cout << "redundant local barriers removed\n";
  }
}

/// Strict positive-integer flag parse: the whole value must be digits and
/// the result ≥ 1. Zero, negatives, and garbage all get the same one-line
/// diagnostic and exit 1 (matching the groverfuzz --seeds handling) — a
/// zero thread pool, zero-byte cache, or zero-iteration batch is never
/// what the caller meant.
std::uint64_t parseCountFlag(const char* flag, const std::string& value) {
  // std::stoull accepts a leading '-' by wrapping; reject it explicitly.
  if (!value.empty() && value[0] != '-') {
    try {
      std::size_t pos = 0;
      const unsigned long long n = std::stoull(value, &pos);
      if (pos == value.size() && n >= 1) return n;
    } catch (const std::exception&) {
    }
  }
  std::cerr << "groverc: bad " << flag << " value '" << value
            << "' (expected a positive integer)\n";
  std::exit(1);
}

std::vector<grover::perf::PlatformSpec> platformsByName(
    const std::string& name) {
  std::vector<grover::perf::PlatformSpec> all =
      grover::perf::allPlatforms();
  if (name.empty() || name == "all") return all;
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  for (grover::perf::PlatformSpec& p : all) {
    std::string pl = p.name;
    std::transform(pl.begin(), pl.end(), pl.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (pl == lower) return {std::move(p)};
  }
  throw grover::GroverError("unknown platform '" + name + "'");
}

int runAppComparison(const std::string& appId, const std::string& platform,
                     const std::string& scaleName, unsigned threads,
                     bool validate, bool nativeExec) {
  const grover::apps::Application& app =
      grover::apps::applicationById(appId);
  const grover::apps::Scale scale = scaleName == "test"
                                        ? grover::apps::Scale::Test
                                        : grover::apps::Scale::Bench;
  std::cout << "app " << app.id() << " (" << app.datasetDescription()
            << ")\n";
  if (nativeExec) {
    grover::perf::MeasureOptions opts;
    opts.scale = scale;
    opts.threads = threads;
    opts.validate = validate;
    const grover::perf::Measurement m = grover::perf::measure(app, opts);
    if (!m.ok) {
      std::cerr << "groverc: measurement failed: " << m.error << "\n";
      return 1;
    }
    if (!m.usedNative) {
      // Graceful degradation, never an abort: the decoded interpreter
      // measures the same ratio, just slower.
      std::cerr << "groverc: native execution unavailable ("
                << m.nativeFallbackReason
                << "); measuring with the decoded interpreter\n";
    }
    std::cout << "measured (" << (m.usedNative ? "native" : "interpreter")
              << "): with-LM " << grover::fixed(m.msWithLM, 3)
              << " ms, without-LM " << grover::fixed(m.msWithoutLM, 3)
              << " ms, np " << grover::fixed(m.measuredNp, 3) << " ("
              << grover::perf::toString(m.outcome) << ")\n";
    return 0;
  }
  for (const grover::perf::PlatformSpec& spec : platformsByName(platform)) {
    const grover::PerfComparison cmp =
        grover::comparePerformance(app, spec, scale, threads, validate);
    std::cout << spec.name << ": with-LM " << cmp.cyclesWithLM
              << " cycles, without-LM " << cmp.cyclesWithoutLM
              << " cycles, np " << cmp.normalized << " ("
              << grover::perf::toString(cmp.outcome) << ")\n";
  }
  return 0;
}

using grover::net::BatchEntry;

/// The CI prove-sweep (--prove-apps): prove every built-in application's
/// kernel — original and transformed — under its real launch geometry.
/// Failure conditions are prover *bugs*, not kernel properties: a
/// Refuted original (every Table I kernel is race-free by construction)
/// or a Refuted witness the decoded interpreter cannot reproduce. A
/// Refuted transformed kernel is the veto working as designed and only
/// reported.
int runProveApps(const std::string& reportPath,
                 const std::string& scaleName) {
  namespace sym = grover::sym;
  const grover::apps::Scale scale = scaleName == "test"
                                        ? grover::apps::Scale::Test
                                        : grover::apps::Scale::Bench;
  std::ostringstream report;
  std::size_t proved = 0, unknown = 0, refutedOriginals = 0,
              refutedTransforms = 0, contradicted = 0;
  for (const auto& app : grover::apps::allApplications()) {
    const grover::apps::Instance instance = app->makeInstance(scale);
    const sym::ProveOptions popts =
        sym::proveOptionsForLaunch(instance.range, instance.args);

    grover::Program original = grover::compile(app->source());
    grover::ir::Function* origKernel = original.kernel(app->kernelName());
    const sym::SymbolicReport orig =
        sym::proveRaceFreedom(*origKernel, popts);

    grover::Program transformed = grover::compile(app->source());
    grover::ir::Function* transKernel =
        transformed.kernel(app->kernelName());
    grover::grv::GroverOptions gopts;
    gopts.onlyBuffers = app->buffersToDisable();
    (void)grover::grv::runGrover(*transKernel, gopts);
    const sym::SymbolicReport trans =
        sym::proveRaceFreedom(*transKernel, popts);

    std::cout << app->id() << ": original " << orig.summary()
              << "; transformed " << trans.summary() << "\n";
    report << "=== " << app->id() << " ===\n--- original ---\n"
           << orig.str() << "--- transformed ---\n" << trans.str();

    switch (orig.status) {
      case sym::ProofStatus::Proved: ++proved; break;
      case sym::ProofStatus::Refuted: ++refutedOriginals; break;
      default: ++unknown; break;
    }
    if (orig.status == sym::ProofStatus::Refuted) {
      std::cerr << "groverc: PROVER BUG: original kernel of " << app->id()
                << " was refuted — Table I kernels are race-free\n";
    }
    if (trans.status == sym::ProofStatus::Refuted) ++refutedTransforms;

    // Every witness must reproduce on the decoded interpreter; one that
    // does not is an unsound refutation.
    const auto crossCheck = [&](const sym::SymbolicReport& r,
                                grover::ir::Function& fn,
                                const char* which) {
      if (r.status != sym::ProofStatus::Refuted || !r.witness) return;
      const sym::WitnessCheck check = sym::confirmWitness(
          fn, *r.witness, instance.range, instance.args);
      report << which << " witness check: "
             << (check.confirmed ? "confirmed" : "CONTRADICTED") << " ("
             << check.detail << ")\n";
      if (!check.confirmed) {
        ++contradicted;
        std::cerr << "groverc: PROVER BUG: " << which << " witness of "
                  << app->id() << " contradicted by the interpreter: "
                  << check.detail << "\n";
      }
    };
    crossCheck(orig, *origKernel, "original");
    crossCheck(trans, *transKernel, "transformed");
  }

  std::cout << "\nprove-sweep: " << proved << " proved, " << unknown
            << " unknown, " << refutedOriginals << " refuted originals, "
            << refutedTransforms << " refuted transforms (vetoed), "
            << contradicted << " contradicted witnesses\n";
  if (!reportPath.empty()) {
    std::ofstream out(reportPath, std::ios::trunc);
    out << report.str();
    if (!out.good()) {
      std::cerr << "groverc: cannot write report to '" << reportPath
                << "'\n";
      return 1;
    }
    std::cout << "report written to " << reportPath << "\n";
  }
  return (refutedOriginals > 0 || contradicted > 0) ? 1 : 0;
}

/// Ship a serve-batch file to a running groverd daemon (--connect).
/// Request lines go over the wire verbatim — the daemon parses them with
/// the same grammar, and `.cl` paths resolve on the *daemon's*
/// filesystem. Responses are pipelined (bounded window) and rendered
/// exactly like a local serve-batch run, followed by the daemon's
/// cumulative stats block.
int runConnectBatch(const std::string& file, const std::string& spec,
                    int repeat, bool autoPolicy) {
  namespace net = grover::net;
  std::string contents;
  if (std::string err; !readTextFile(file, contents, err)) {
    std::cerr << "groverc: cannot read '" << file << "': " << err << "\n";
    return 1;
  }
  // Comment/blank stripping only: validation is the daemon's job.
  std::vector<std::string> lines;
  {
    std::istringstream in(contents);
    std::string line;
    while (std::getline(in, line)) {
      if (const std::size_t hash = line.find('#');
          hash != std::string::npos) {
        line = line.substr(0, hash);
      }
      std::istringstream tokens(line);
      std::vector<std::string> words;
      for (std::string w; tokens >> w;) words.push_back(w);
      if (!words.empty()) lines.push_back(grover::join(words, " "));
    }
  }
  if (lines.empty()) {
    std::cerr << "groverc: '" << file << "' contains no requests\n";
    return 1;
  }

  net::Client client;
  try {
    client.connect(spec);
  } catch (const std::exception& e) {
    std::cerr << "groverc: " << e.what() << "\n";
    return 1;
  }

  struct Slot {
    net::Status status = net::Status::Ok;
    std::string text;
    bool received = false;
  };
  const std::size_t total = lines.size() * static_cast<std::size_t>(repeat);
  std::vector<Slot> responses(total);
  const net::FrameType type = autoPolicy ? net::FrameType::AutoRequest
                                         : net::FrameType::Request;
  // Pipeline with a bounded window so neither side's socket buffer has
  // to absorb an unbounded batch.
  constexpr std::size_t kWindow = 64;
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0, received = 0;
  try {
    while (received < total) {
      while (sent < total && sent - received < kWindow) {
        client.sendFrame(type, sent, lines[sent % lines.size()]);
        ++sent;
      }
      const net::Frame f = client.readFrame();
      net::Status status = net::Status::Ok;
      std::string_view text;
      if (!net::splitStatusPayload(f.payload, status, text)) {
        std::cerr << "groverc: bad response payload from daemon\n";
        return 1;
      }
      if (f.type == net::FrameType::Error) {
        std::cerr << "groverc: daemon reported a protocol error: " << text
                  << "\n";
        return 1;
      }
      if (f.type != net::FrameType::Response || f.id >= total ||
          responses[f.id].received) {
        std::cerr << "groverc: unexpected response frame (type "
                  << static_cast<int>(f.type) << ", id " << f.id << ")\n";
        return 1;
      }
      responses[f.id].status = status;
      responses[f.id].text = text;
      responses[f.id].received = true;
      ++received;
    }
  } catch (const std::exception& e) {
    std::cerr << "groverc: " << e.what() << "\n";
    return 1;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // First response per distinct line, like the local mode.
  bool anyError = false;
  std::size_t failed = 0;
  for (const Slot& s : responses) {
    if (s.status != net::Status::Ok) anyError = true;
    if (s.text.rfind("failed:", 0) == 0) ++failed;
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::cout << "[" << (i + 1) << "] " << lines[i] << ": "
              << responses[i].text << "\n";
  }

  std::cout << "\nserved " << received << " requests in "
            << grover::fixed(seconds, 3) << " s ("
            << grover::fixed(seconds > 0 ? received / seconds : 0, 1)
            << " req/s), " << failed << " failed\n";
  try {
    client.sendFrame(net::FrameType::Stats, total, "");
    const net::Frame f = client.readFrame();
    net::Status status = net::Status::Ok;
    std::string_view text;
    if (f.type == net::FrameType::StatsResponse &&
        net::splitStatusPayload(f.payload, status, text)) {
      std::cout << text;
    }
  } catch (const std::exception& e) {
    std::cerr << "groverc: stats request failed: " << e.what() << "\n";
  }
  return anyError ? 1 : 0;
}

/// Fetch the daemon's binary StatsFrame (--connect --stats[-json]):
/// send one StatsBinary frame, decode the fixed-layout response, and
/// render it — the "server:" line is byte-identical to the rendered-text
/// stats payload, so the two views can be diffed.
int runConnectStats(const std::string& spec, bool json) {
  namespace net = grover::net;
  net::Client client;
  try {
    client.connect(spec);
    client.sendFrame(net::FrameType::StatsBinary, 1, "");
    const net::Frame f = client.readFrame();
    net::Status status = net::Status::Ok;
    std::string_view blob;
    if (!net::splitStatusPayload(f.payload, status, blob)) {
      std::cerr << "groverc: bad stats response payload from daemon\n";
      return 1;
    }
    if (f.type != net::FrameType::StatsBinaryResponse ||
        status != net::Status::Ok) {
      std::cerr << "groverc: daemon did not return a stats frame ("
                << net::toString(status) << ": " << blob << ")\n";
      return 1;
    }
    net::StatsFrame stats;
    std::string err;
    if (!net::decodeStatsFrame(blob, stats, &err)) {
      std::cerr << "groverc: cannot decode stats frame: " << err << "\n";
      return 1;
    }
    std::cout << (json ? net::renderStatsFrameJson(stats)
                       : net::renderStatsFrame(stats));
  } catch (const std::exception& e) {
    std::cerr << "groverc: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

int runServeBatch(const std::string& file, unsigned threads, int repeat,
                  std::size_t cacheMb, const std::string& cacheDir,
                  bool autoPolicy, const std::string& policyDir,
                  double measureRate, bool prove,
                  std::uint64_t policyHorizonMs) {
  namespace svc = grover::service;
  std::string contents;
  if (std::string err; !readTextFile(file, contents, err)) {
    std::cerr << "groverc: cannot read '" << file << "': " << err << "\n";
    return 1;
  }
  std::vector<BatchEntry> entries = grover::net::parseBatchFile(contents, file);
  if (entries.empty()) {
    std::cerr << "groverc: '" << file << "' contains no requests\n";
    return 1;
  }
  if (prove) {
    // Same rule as groverd --prove: proving is a serving-side policy,
    // applied to every request line.
    for (BatchEntry& e : entries) e.request.options.prove = true;
  }

  svc::ServiceConfig config;
  config.workers = threads;
  config.cache.maxBytes = cacheMb << 20;
  config.cache.diskDir = cacheDir;
  config.policyStore.diskDir = policyDir;
  config.measureRate = measureRate;
  config.policyDecayHorizonMs = policyHorizonMs;
  svc::CompileService service(config);
  if (measureRate > 0) {
    const grover::native::NativeEngine& engine =
        grover::native::NativeEngine::shared();
    if (!engine.available()) {
      std::cerr << "groverc: native execution unavailable ("
                << engine.unavailableReason()
                << "); sampled measurements use the decoded interpreter\n";
    }
  }

  const auto start = std::chrono::steady_clock::now();
  std::size_t served = 0, failed = 0;
  std::vector<grover::service::ArtifactPtr> firstResult(entries.size());
  std::vector<svc::AutoResult> firstAuto(entries.size());
  if (autoPolicy) {
    // Policy mode: each request consults the decision store; warm
    // decisions compile only the winning variant.
    for (int rep = 0; rep < repeat; ++rep) {
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].valid) continue;
        try {
          svc::AutoResult r = service.compileAuto(entries[i].request);
          ++served;
          if (!r.artifact->ok) ++failed;
          if (firstAuto[i].artifact == nullptr) {
            firstResult[i] = r.artifact;
            firstAuto[i] = std::move(r);
          }
        } catch (const std::exception& e) {
          entries[i].valid = false;
          entries[i].error = e.what();
        }
      }
    }
  } else {
    // Submit every repetition of every valid line up front; the service
    // coalesces identical in-flight requests and serves repeats from
    // cache.
    std::vector<std::pair<std::size_t, svc::CompileService::Future>> futures;
    for (int rep = 0; rep < repeat; ++rep) {
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].valid) continue;
        try {
          futures.emplace_back(i, service.submit(entries[i].request));
        } catch (const std::exception& e) {
          entries[i].valid = false;
          entries[i].error = e.what();
        }
      }
    }
    for (auto& [index, future] : futures) {
      grover::service::ArtifactPtr artifact = future.get();
      ++served;
      if (!artifact->ok) ++failed;
      if (firstResult[index] == nullptr) firstResult[index] = artifact;
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  service.drain();

  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BatchEntry& e = entries[i];
    std::cout << "[" << (i + 1) << "] " << e.text << ": ";
    if (!e.error.empty()) {
      std::cout << "error: " << e.error << "\n";
      continue;
    }
    const grover::service::ArtifactPtr& a = firstResult[i];
    if (a == nullptr) {
      std::cout << "not served\n";
    } else if (autoPolicy && a->ok && firstAuto[i].eligible) {
      std::cout << grover::net::renderAutoResultLine(firstAuto[i]) << "\n";
    } else {
      std::cout << grover::net::renderResultLine(*a) << "\n";
    }
  }

  const svc::ServiceStats s = service.stats();
  std::cout << "\nserved " << served << " requests in "
            << grover::fixed(seconds, 3) << " s ("
            << grover::fixed(seconds > 0 ? served / seconds : 0, 1)
            << " req/s), " << failed << " failed\n";
  grover::net::StatsRenderOptions statsOpts;
  statsOpts.policy = autoPolicy;
  statsOpts.measure = measureRate > 0;
  statsOpts.prove = prove;
  std::cout << grover::net::renderStats(s, statsOpts);

  for (const BatchEntry& e : entries) {
    if (!e.error.empty()) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  std::string path;
  std::string kernelName;
  std::string appId;
  std::string platformName;
  std::string scaleName = "bench";
  std::string batchFile;
  std::string cacheDir;
  std::string policyDir;
  std::string connectSpec;
  std::size_t cacheMb = 256;
  bool cacheMbSet = false;
  int repeat = 1;
  unsigned threads = 0;
  bool autoPolicy = false;
  bool nativeExec = false;
  bool statsMode = false;
  bool statsJson = false;
  bool proveApps = false;
  std::string proveReport;
  std::uint64_t policyHorizonMs = 0;
  double measureRate = 0;
  grover::grv::GroverOptions options;
  bool showBefore = false;
  bool reportOnly = false;
  bool analyzeOnly = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--kernel=", 0) == 0) {
      kernelName = arg.substr(9);
    } else if (arg.rfind("--only=", 0) == 0) {
      options.onlyBuffers.insert(arg.substr(7));
    } else if (arg == "--keep-barriers") {
      options.removeBarriers = false;
    } else if (arg == "--no-cleanup") {
      options.cleanup = false;
    } else if (arg == "--validate") {
      options.validate = true;
    } else if (arg == "--prove") {
      options.prove = true;
    } else if (arg == "--prove-apps") {
      proveApps = true;
    } else if (arg.rfind("--prove-report=", 0) == 0) {
      proveReport = arg.substr(15);
    } else if (arg.rfind("--policy-horizon-ms=", 0) == 0) {
      policyHorizonMs = parseCountFlag("--policy-horizon-ms", arg.substr(20));
    } else if (arg == "--before") {
      showBefore = true;
    } else if (arg == "--report-only") {
      reportOnly = true;
    } else if (arg == "--analyze") {
      analyzeOnly = true;
    } else if (arg.rfind("--app=", 0) == 0) {
      appId = arg.substr(6);
    } else if (arg.rfind("--platform=", 0) == 0) {
      platformName = arg.substr(11);
    } else if (arg.rfind("--scale=", 0) == 0) {
      scaleName = arg.substr(8);
    } else if (arg.rfind("--serve-batch=", 0) == 0) {
      batchFile = arg.substr(14);
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = static_cast<int>(parseCountFlag("--repeat", arg.substr(9)));
    } else if (arg.rfind("--cache-mb=", 0) == 0) {
      cacheMb = static_cast<std::size_t>(
          parseCountFlag("--cache-mb", arg.substr(11)));
      cacheMbSet = true;
    } else if (arg.rfind("--connect=", 0) == 0) {
      connectSpec = arg.substr(10);
    } else if (arg == "--version") {
      std::cout << "groverc " << GROVER_VERSION_STRING << " (protocol v"
                << grover::net::kProtocolVersion << ")\n";
      return 0;
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      cacheDir = arg.substr(12);
    } else if (arg.rfind("--policy-dir=", 0) == 0) {
      policyDir = arg.substr(13);
    } else if (arg == "--auto") {
      autoPolicy = true;
    } else if (arg == "--stats") {
      statsMode = true;
    } else if (arg == "--stats-json") {
      statsMode = true;
      statsJson = true;
    } else if (arg == "--native") {
      nativeExec = true;
    } else if (arg.rfind("--measure-rate=", 0) == 0) {
      const std::string value = arg.substr(15);
      try {
        std::size_t pos = 0;
        measureRate = std::stod(value, &pos);
        if (pos != value.size() || measureRate <= 0 || measureRate > 1) {
          throw std::invalid_argument(value);
        }
      } catch (const std::exception&) {
        std::cerr << "groverc: bad --measure-rate value '" << value
                  << "' (expected a number in (0, 1])\n";
        return 1;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<unsigned>(
          parseCountFlag("--threads", arg.substr(10)));
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(parseCountFlag("--threads", argv[++i]));
    } else if (arg == "--list-apps") {
      for (const auto& app : grover::apps::allApplications()) {
        std::cout << app->id() << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
      return 2;
    } else {
      path = arg;
    }
  }
  if (scaleName != "test" && scaleName != "bench") {
    std::cerr << "bad --scale value: " << scaleName << "\n";
    return 2;
  }
  if (autoPolicy && batchFile.empty()) {
    std::cerr << "groverc: --auto requires --serve-batch\n";
    return 1;
  }
  if (!proveReport.empty() && !proveApps) {
    std::cerr << "groverc: --prove-report requires --prove-apps\n";
    return 1;
  }
  if (policyHorizonMs > 0 && !autoPolicy) {
    std::cerr << "groverc: --policy-horizon-ms requires --auto\n";
    return 1;
  }
  if (measureRate > 0 && !autoPolicy) {
    std::cerr << "groverc: --measure-rate requires --auto\n";
    return 1;
  }
  if (nativeExec && appId.empty()) {
    std::cerr << "groverc: --native requires --app\n";
    return 1;
  }
  if (statsMode) {
    if (connectSpec.empty()) {
      std::cerr << "groverc: --stats requires --connect\n";
      return 1;
    }
    if (!batchFile.empty()) {
      std::cerr << "groverc: --stats and --serve-batch are separate modes; "
                   "run them as two invocations\n";
      return 1;
    }
    return runConnectStats(connectSpec, statsJson);
  }
  if (!connectSpec.empty()) {
    if (batchFile.empty()) {
      std::cerr << "groverc: --connect requires --serve-batch (or --stats)\n";
      return 1;
    }
    // Cache, policy, measurement and threading are properties of the
    // daemon's service, set on the groverd command line.
    if (!cacheDir.empty() || !policyDir.empty() || measureRate > 0 ||
        threads != 0 || cacheMbSet) {
      std::cerr << "groverc: --cache-dir/--policy-dir/--measure-rate/"
                   "--threads/--cache-mb are daemon-side flags; set them "
                   "when starting groverd\n";
      return 1;
    }
  }

  try {
    if (proveApps) {
      return runProveApps(proveReport, scaleName);
    }
    if (!batchFile.empty()) {
      if (!connectSpec.empty()) {
        return runConnectBatch(batchFile, connectSpec, repeat, autoPolicy);
      }
      return runServeBatch(batchFile, threads, repeat, cacheMb, cacheDir,
                           autoPolicy, policyDir, measureRate,
                           options.prove, policyHorizonMs);
    }
    if (!appId.empty()) {
      return runAppComparison(appId, platformName, scaleName, threads,
                              options.validate, nativeExec);
    }
    if (path.empty()) {
      usage();
      return 2;
    }

    std::string source;
    if (std::string error; !readTextFile(path, source, error)) {
      std::cerr << "groverc: cannot read '" << path << "': " << error
                << "\n";
      return 1;
    }

    grover::Program program = grover::compile(source);
    bool anyKernel = false;
    bool anyVeto = false;
    for (const auto& fn : program.module->functions()) {
      if (!fn->isKernel()) continue;
      if (!kernelName.empty() && fn->name() != kernelName) continue;
      anyKernel = true;
      std::cout << "=== kernel '" << fn->name() << "' ===\n";
      if (analyzeOnly) {
        std::cout << grover::grv::analyzeLocalMemoryUsage(*fn).str();
        continue;
      }
      if (showBefore) {
        std::cout << "--- before ---\n" << grover::ir::printFunction(*fn);
      }
      // Prove the original before the in-place transform consumes it.
      // No launch geometry is available for a raw source; the inferred
      // per-kernel geometry (computed once, before the transform) keeps
      // the two proofs comparable for the veto check.
      grover::sym::SymbolicReport proofBefore;
      grover::sym::ProveOptions proveOpts;
      if (options.prove) {
        proveOpts = grover::sym::proveOptionsForKernel(*fn);
        proofBefore = grover::sym::proveRaceFreedom(*fn, proveOpts);
        std::cout << "proof (original): " << proofBefore.summary() << "\n";
      }
      const auto result = grover::grv::runGrover(*fn, options);
      printReport(result);
      if (options.prove) {
        const grover::sym::SymbolicReport proofAfter =
            grover::sym::proveRaceFreedom(*fn, proveOpts);
        std::cout << "proof (transformed): " << proofAfter.summary()
                  << "\n";
        if (proofBefore.status != grover::sym::ProofStatus::Refuted &&
            proofAfter.status == grover::sym::ProofStatus::Refuted) {
          anyVeto = true;
          std::cerr << "groverc: transform vetoed for kernel '"
                    << fn->name()
                    << "': the transformed IR has a provable race the "
                       "original does not\n";
        }
      }
      if (!reportOnly) {
        std::cout << "--- after ---\n" << grover::ir::printFunction(*fn);
      }
    }
    if (!anyKernel) {
      std::cerr << "no matching kernel found\n";
      return 1;
    }
    if (anyVeto) return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
