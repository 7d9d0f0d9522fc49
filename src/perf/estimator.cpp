#include "perf/estimator.h"

#include <algorithm>
#include <thread>

#include "perf/cpu_model.h"
#include "perf/gpu_model.h"
#include "perf/traced_driver.h"

namespace grover::perf {

PerfEstimate estimate(const PlatformSpec& platform, ir::Function& fn,
                      const rt::NDRange& range,
                      std::vector<rt::KernelArg> args,
                      std::uint32_t sampleStride, unsigned threads,
                      const std::function<void()>& checkpoint) {
  rt::Launch launch(fn, range, std::move(args));
  if (sampleStride > 1) launch.setGroupSampling(sampleStride);
  if (threads == 0) {
    threads = std::max(1U, std::thread::hardware_concurrency());
  }
  const auto groups = launch.sampledGroups();

  PerfEstimate est;
  TracedLaunchTimes times;
  if (platform.kind == PlatformKind::CpuCacheOnly) {
    CpuModel model(platform);
    times = runTracedLaunch(model, launch.image(), groups, threads, checkpoint);
    est.cycles = model.totalCycles() * sampleStride;
    est.counters = model.counters();
    est.memoryCycles = model.memoryCycles();
    est.l1HitRate = model.l1HitRate();
  } else {
    GpuModel model(platform);
    times = runTracedLaunch(model, launch.image(), groups, threads, checkpoint);
    est.cycles = model.totalCycles() * sampleStride;
    est.counters = model.counters();
    est.transactions = model.globalTransactions();
    est.spmCycles = model.spmCyclesTotal();
  }
  est.traceMs = times.traceMs;
  est.digestMs = times.digestMs;
  return est;
}

double normalizedPerformance(double cyclesWithLM, double cyclesWithoutLM) {
  if (cyclesWithoutLM <= 0) return 0;
  return cyclesWithLM / cyclesWithoutLM;
}

Outcome classify(double np, double threshold) {
  if (np > 1.0 + threshold) return Outcome::Gain;
  if (np < 1.0 - threshold) return Outcome::Loss;
  return Outcome::Similar;
}

const char* toString(Outcome o) {
  switch (o) {
    case Outcome::Gain: return "gain";
    case Outcome::Loss: return "loss";
    case Outcome::Similar: return "similar";
  }
  return "?";
}

}  // namespace grover::perf
