// Estimator: run a kernel under the interpreter with the right trace model
// attached and return estimated cycles. The paper's normalized performance
// (np = perf without LM / perf with LM = cycles_with / cycles_without) is
// computed from two estimates on the same platform, so absolute calibration
// cancels.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ir/function.h"
#include "perf/platform.h"
#include "rt/interpreter.h"
#include "support/thread_pool.h"

namespace grover::perf {

struct PerfEstimate {
  double cycles = 0;
  rt::InstCounters counters;
  // Diagnostics.
  double memoryCycles = 0;         // CPU models
  double l1HitRate = 0;            // CPU models
  std::uint64_t transactions = 0;  // GPU models
  double spmCycles = 0;            // GPU models
  // Host wall time of the estimate itself (perf/traced_driver.h phases);
  // the only fields that differ between runs.
  double traceMs = 0;   // phase A: trace generation
  double digestMs = 0;  // phases B and C: model digest and merge
};

/// Execute `fn` over the NDRange (optionally sampling every Nth group) and
/// estimate its run time on `platform`. Sampling scales the result back up.
/// The calling thread executes and digests the trace; up to pool.size()
/// workers of `pool` may join it while they are idle (the pool is borrowed,
/// never waited idle). The estimate is bit-identical for every number of
/// participants — see perf/traced_driver.h for the guarantee.
/// `checkpoint` (optional) is called on the calling thread before each
/// work-group it runs; an exception it throws abandons the estimate, which
/// is how a caller cancels one mid-run.
[[nodiscard]] PerfEstimate estimate(
    const PlatformSpec& platform, ir::Function& fn, const rt::NDRange& range,
    std::vector<rt::KernelArg> args, std::uint32_t sampleStride,
    ThreadPool& pool, const std::function<void()>& checkpoint = {});

/// As above with `threads` participants (0 = hardware_concurrency, capped
/// at it): more than one starts a pool of threads - 1 workers for this
/// call. Long-lived callers lend their own pool instead.
[[nodiscard]] PerfEstimate estimate(
    const PlatformSpec& platform, ir::Function& fn, const rt::NDRange& range,
    std::vector<rt::KernelArg> args, std::uint32_t sampleStride = 1,
    unsigned threads = 0, const std::function<void()>& checkpoint = {});

/// normalized performance of "without local memory" vs "with":
/// np > 1 → disabling local memory is faster (paper Fig. 2/10 y-axis).
[[nodiscard]] double normalizedPerformance(double cyclesWithLM,
                                           double cyclesWithoutLM);

/// Gain/Loss/Similar classification at the paper's 5% threshold (Table IV).
enum class Outcome { Gain, Loss, Similar };
[[nodiscard]] Outcome classify(double np, double threshold = 0.05);
[[nodiscard]] const char* toString(Outcome o);

}  // namespace grover::perf
