// Traced-launch throughput of the parallel estimation pipeline, and where
// one estimate's time goes.
//
// Baseline: the seed's serial path — the tree-walking ReferenceExecutor
// pushing every event through the virtual TraceSink interface straight
// into the platform model. Against it: the pre-decoded GroupExecutor with
// buffered GroupTraces and the two-phase digest/merge driver
// (perf/traced_driver.h), swept over 1/2/4/8 participants: the calling
// thread plus a pool of participants - 1 helpers, started once per count
// outside the timed repetitions, as a long-lived caller such as the
// compile service lends its pool. Both a cache-only CPU model (SNB) and a
// GPU model (Fermi) are swept.
//
// Then a one-participant perf::estimate splits each estimate into phase
// A (trace generation) and phases B+C (model digest and merge), reported
// per traced group.
//
// Reports groups/second per configuration and the speedup over the seed
// path, and exits non-zero when any configuration's estimate differs from
// the seed path's or from its own earlier repetitions. Results land in
// BENCH_parallel_estimation.json.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "perf/cpu_model.h"
#include "perf/estimator.h"
#include "perf/gpu_model.h"
#include "perf/traced_driver.h"
#include "rt/ref_interpreter.h"

#ifndef GROVER_BUILD_TYPE
#define GROVER_BUILD_TYPE "unknown"
#endif

namespace {

using namespace grover;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Measurement {
  double groupsPerSec = 0;
  double cycles = 0;  // model estimate, for cross-config identity checks
};

/// Best-of-`reps` wall time for one full traced estimation of `groups`.
template <typename Run>
Measurement measure(std::size_t numGroups, int reps, const Run& run) {
  Measurement best;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    const double cycles = run();
    const double secs = secondsSince(start);
    const double gps = static_cast<double>(numGroups) / secs;
    if (gps > best.groupsPerSec) best.groupsPerSec = gps;
    if (r == 0) {
      best.cycles = cycles;
    } else if (best.cycles != cycles) {
      std::cerr << "FATAL: estimate changed between repetitions\n";
      std::exit(1);
    }
  }
  return best;
}

void fatalIfDiverges(const std::string& what, double cycles, double seed) {
  if (cycles != seed) {
    std::cerr << "FATAL: " << what << " diverges from the seed estimate ("
              << cycles << " vs " << seed << ")\n";
    std::exit(1);
  }
}

/// The cycles of one full estimation with a fresh `Model` fed by `feed`.
template <typename Model, typename Feed>
double modelCycles(const perf::PlatformSpec& platform, const Feed& feed) {
  Model model(platform);
  feed(model);
  return model.totalCycles();
}

/// Sweep one app on one platform model; appends its JSON object to `json`.
template <typename Model>
void sweep(const std::string& id, const perf::PlatformSpec& platform,
           const std::vector<unsigned>& threadCounts, int reps,
           std::ostringstream& json) {
  const apps::Application& app = apps::applicationById(id);
  Program program = compile(app.source());
  ir::Function* kernel = program.kernel(app.kernelName());
  apps::Instance instance = app.makeInstance(apps::Scale::Bench);
  rt::Launch launch(*kernel, instance.range, instance.args);
  if (instance.benchSampleStride > 1) {
    launch.setGroupSampling(instance.benchSampleStride);
  }
  const auto groups = launch.sampledGroups();
  const rt::KernelImage& image = launch.image();

  // Seed serial path: tree-walker + virtual sink pushes.
  const Measurement seed = measure(groups.size(), reps, [&] {
    return modelCycles<Model>(platform, [&](Model& model) {
      rt::ReferenceExecutor exec(image, &model);
      for (const auto& g : groups) exec.runGroup(g);
    });
  });

  std::cout << padRight(id, 10) << " on " << padRight(platform.name, 6)
            << " " << groups.size() << " groups\n";
  std::cout << "  seed serial      " << fixed(seed.groupsPerSec, 1)
            << " groups/s\n";
  json << "    \"" << platform.name << "\": {\n"
       << "      \"groups\": " << groups.size() << ",\n"
       << "      \"seed_groups_per_sec\": " << seed.groupsPerSec << ",\n"
       << "      \"threads\": {";

  bool firstThread = true;
  for (unsigned t : threadCounts) {
    std::unique_ptr<ThreadPool> helpers;
    if (t > 1) helpers = std::make_unique<ThreadPool>(t - 1);
    const Measurement m = measure(groups.size(), reps, [&] {
      return modelCycles<Model>(platform, [&](Model& model) {
        perf::runTracedLaunch(model, image, groups, helpers.get());
      });
    });
    fatalIfDiverges(id + " on " + platform.name + " threads=" +
                        std::to_string(t),
                    m.cycles, seed.cycles);
    const double speedup = m.groupsPerSec / seed.groupsPerSec;
    std::cout << "  decoded participants=" << t << "  "
              << fixed(m.groupsPerSec, 1) << " groups/s  ("
              << fixed(speedup, 2) << "x seed)\n";
    if (!firstThread) json << ", ";
    firstThread = false;
    json << "\"" << t << "\": {\"groups_per_sec\": " << m.groupsPerSec
         << ", \"speedup_vs_seed\": " << speedup << "}";
  }
  json << "},\n";

  // Phase split of a one-thread perf::estimate: median/min/max per group.
  std::vector<double> traceMs;
  std::vector<double> digestMs;
  for (int r = 0; r < reps; ++r) {
    apps::Instance fresh = app.makeInstance(apps::Scale::Bench);
    const perf::PerfEstimate est =
        perf::estimate(platform, *kernel, fresh.range, fresh.args,
                       fresh.benchSampleStride, 1);
    fatalIfDiverges(id + " on " + platform.name + " perf::estimate",
                    est.cycles, seed.cycles * fresh.benchSampleStride);
    traceMs.push_back(est.traceMs / static_cast<double>(groups.size()));
    digestMs.push_back(est.digestMs / static_cast<double>(groups.size()));
  }
  const auto stats = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    std::ostringstream os;
    os << "{\"median\": " << v[v.size() / 2] << ", \"min\": " << v.front()
       << ", \"max\": " << v.back() << "}";
    return std::make_pair(v[v.size() / 2], os.str());
  };
  const auto [traceMedian, traceJson] = stats(traceMs);
  const auto [digestMedian, digestJson] = stats(digestMs);
  std::cout << "  per group (1 thread, median of " << reps << "): trace "
            << fixed(traceMedian, 4) << " ms, digest "
            << fixed(digestMedian, 4) << " ms\n";
  json << "      \"trace_ms_per_group\": " << traceJson << ",\n"
       << "      \"digest_ms_per_group\": " << digestJson << "\n    }";
}

}  // namespace

int main() {
  using namespace grover::bench;

  const std::vector<std::string> appIds = {"NVD-MT", "NVD-MM-A", "PAB-ST"};
  const std::vector<unsigned> threadCounts = {1, 2, 4, 8};
  // Best-of-5: on a loaded host the parallel configurations are the most
  // sensitive to scheduler noise, so take enough samples to find a quiet one.
  const int reps = 5;

  std::cout << "=== parallel trace-driven estimation throughput (SNB and "
               "Fermi models) ===\n\n";
  std::ostringstream json;
  json << "{\n  \"cores\": " << std::thread::hardware_concurrency()
       << ",\n  \"build_type\": \"" << GROVER_BUILD_TYPE
       << "\",\n  \"reps\": " << reps << ",\n  \"apps\": {\n";

  bool firstApp = true;
  for (const std::string& id : appIds) {
    if (!firstApp) json << ",\n";
    firstApp = false;
    json << "  \"" << id << "\": {\n";
    sweep<perf::CpuModel>(id, perf::snb(), threadCounts, reps, json);
    json << ",\n";
    sweep<perf::GpuModel>(id, perf::fermi(), threadCounts, reps, json);
    json << "\n  }";
    std::cout << "\n";
  }

  json << "\n  }\n}\n";
  writeBenchJson("parallel_estimation", json.str());
  return 0;
}
