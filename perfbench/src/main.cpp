// perfbench: the repository benchmark. One invocation runs one workload
// for one seed and prints, as its last stdout line, a JSON object with
// `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
// without --trace, per-layer metrics with --trace 1). Exits non-zero on
// any correctness mismatch. perfbench/run.py builds and drives it.
//
//   perfbench --workload cold_decide|policy_hit --seed N
//             --seconds S --trace 0|1 --work-dir DIR --expected FILE
//             [--trace-out FILE]
//   perfbench --record-expected FILE     (rewrite the expected verdicts)
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>

#include "bench.h"
#include "support/diagnostics.h"

namespace {

using namespace perfbench;

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw grover::GroverError("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.workDir = value;
    } else if (flag == "--trace-out") {
      o.traceOut = value;
    } else if (flag == "--expected") {
      o.expected = value;
    } else if (flag == "--record-expected") {
      o.recordExpected = value;
    } else {
      throw grover::GroverError("unknown flag " + flag);
    }
  }
  return o;
}

/// Every key's cold decision as the workloads request it: Test scale with
/// the prover on.
void recordExpected(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "# Expected cold decisions: app platform scale outcome variant\n"
         "# Regenerate with: perfbench --record-expected <file>\n";
  grover::service::CompileService service;
  for (const Key& key : allKeys(grover::apps::Scale::Test)) {
    const auto r = service.compileAuto(key.request(true));
    if (!r.eligible || r.artifact == nullptr || !r.artifact->ok) {
      throw grover::GroverError("cold decision failed: " + key.line());
    }
    out << key.line() << " "
        << grover::perf::toString(r.decision.predictedOutcome) << " "
        << grover::policy::toString(r.decision.variant) << "\n";
  }
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void printResult(const RunResult& r) {
  for (const std::string& note : r.notes) std::cerr << note << "\n";
  for (const std::string& e : r.errors) std::cerr << "ERROR: " << e << "\n";
  std::string json = std::string("{\"correct\": ") +
                     (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::cerr << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parseArgs(argc, argv);
    if (!o.recordExpected.empty()) {
      recordExpected(o.recordExpected);
      return 0;
    }
    if (o.workDir.empty() || o.expected.empty() ||
        (o.trace && o.traceOut.empty())) {
      throw grover::GroverError(
          "--work-dir and --expected are required (--trace-out with --trace)");
    }
    const ExpectedVerdicts expected = loadExpected(o.expected);
    RunResult r;
    if (o.workload == "cold_decide") {
      r = runColdDecide(o, expected);
    } else if (o.workload == "policy_hit") {
      r = runPolicyHit(o, expected);
    } else {
      throw grover::GroverError("unknown workload '" + o.workload + "'");
    }
    r.correct = r.errors.empty();
    printResult(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
