// Native execution backend: every Table I application must produce
// bit-identical buffers whether executed by the decoded interpreter or as
// JIT-compiled native code, for both the original and Grover-transformed
// kernel versions — and the native output must also satisfy each app's
// sequential reference validator. A kernel_gen sweep cross-checks the
// backend on generated control-flow shapes, and the degradation paths
// (no compiler, native disabled) must fall back to the interpreter with
// a reason, never abort. Two JIT compilers sharing one cache directory
// must not spoil each other's builds. Finally, the service's measurement
// sampling must fold real np observations into stored decisions and
// refresh mismatched ones.
#include <gtest/gtest.h>

#include <unistd.h>

#include <barrier>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "check/differential.h"
#include "check/kernel_gen.h"
#include "grovercl/harness.h"
#include "native/engine.h"
#include "native/jit.h"
#include "perf/measure.h"
#include "rt/interpreter.h"
#include "service/compile_service.h"

namespace grover {
namespace {

namespace fs = std::filesystem;

/// Byte-exact copy of every buffer of an instance.
std::vector<std::vector<std::byte>> snapshot(const apps::Instance& in) {
  std::vector<std::vector<std::byte>> out;
  out.reserve(in.buffers.size());
  for (const auto& b : in.buffers) {
    out.emplace_back(b->data(), b->data() + b->size());
  }
  return out;
}

bool nativeAvailable() {
  return native::NativeEngine::shared().available();
}

/// Golden-output differential over every Table I app × both versions:
/// native output must equal the decoded interpreter's bit for bit AND
/// pass the app's sequential reference validator.
class NativeExecApps : public ::testing::TestWithParam<std::string> {};

TEST_P(NativeExecApps, NativeMatchesInterpreterAndReference) {
  if (!nativeAvailable()) {
    GTEST_SKIP() << "native backend unavailable: "
                 << native::NativeEngine::shared().unavailableReason();
  }
  const apps::Application& app = apps::applicationById(GetParam());
  KernelPair pair = prepareKernelPair(app, /*validate=*/false);
  for (ir::Function* fn : {pair.originalKernel, pair.transformedKernel}) {
    const char* tag = fn == pair.originalKernel ? "original" : "transformed";

    apps::Instance interp = app.makeInstance(apps::Scale::Test);
    rt::Launch launch(*fn, interp.range, interp.args);
    launch.run(1);
    const auto expected = snapshot(interp);

    apps::Instance nat = app.makeInstance(apps::Scale::Test);
    std::string reason;
    rt::KernelImage image(*fn, nat.range, nat.args);
    auto kernel = native::NativeEngine::shared().prepare(image, reason);
    ASSERT_NE(kernel, nullptr) << tag << ": " << reason;
    kernel->execute(image);

    const auto got = snapshot(nat);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i])
          << tag << ": buffer " << i << " diverges from the interpreter";
    }
    std::string message;
    EXPECT_TRUE(nat.validate(message)) << tag << ": " << message;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, NativeExecApps,
    ::testing::ValuesIn([] {
      std::vector<std::string> ids;
      for (const auto& app : apps::allApplications()) ids.push_back(app->id());
      return ids;
    }()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// A kernel_gen sweep: 100 generated kernels through the full differential
// harness with the native leg on. Every seed must pass, and when the
// toolchain is present the native leg must actually have run.
TEST(NativeExec, KernelGenSweep) {
  const bool expectNative = nativeAvailable();
  unsigned checked = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const check::GeneratedKernel kernel = check::generateKernel(seed);
    const check::DiffOutcome outcome =
        check::runDifferential(kernel, /*validate=*/false, /*nativeLeg=*/true);
    ASSERT_TRUE(outcome.ok) << "seed " << seed << " [" << outcome.phase
                            << "] " << outcome.message;
    if (outcome.nativeChecked) ++checked;
  }
  if (expectNative) EXPECT_EQ(checked, 100U);
}

// Forced failure: a nonexistent compiler must make the engine report
// itself unavailable with a reason — prepare() returns null, nothing
// throws, and callers can fall back to the interpreter.
TEST(NativeExec, GracefulFallbackWithoutCompiler) {
  native::JitOptions options;
  options.compiler = "/nonexistent/grover-test-cc";
  native::NativeEngine engine(options);
  EXPECT_FALSE(engine.available());
  EXPECT_FALSE(engine.unavailableReason().empty());

  const apps::Application& app = apps::applicationById("AMD-MT");
  apps::Instance instance = app.makeInstance(apps::Scale::Test);
  KernelPair pair = prepareKernelPair(app, false);
  rt::KernelImage image(*pair.originalKernel, instance.range, instance.args);
  std::string reason;
  EXPECT_EQ(engine.prepare(image, reason), nullptr);
  EXPECT_FALSE(reason.empty());
}

// Two compilers sharing one cache directory build the same sources at
// the same moment. Every intermediate file (C source, compiler log,
// object) must be private to its builder, so each compile() resolves its
// symbol no matter how the two interleave.
TEST(NativeExec, ConcurrentCompilersShareACacheDir) {
  const fs::path dir = fs::temp_directory_path() /
                       ("grover_jit_race_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  native::JitOptions options;
  options.cacheDir = dir.string();
  native::JitCompiler first(options);
  native::JitCompiler second(options);
  if (!first.available()) {
    GTEST_SKIP() << "native backend unavailable: "
                 << first.unavailableReason();
  }

  // A long comment keeps the source write and the compiler's read of it
  // wide enough to overlap.
  const std::string padding = "/*" + std::string(1 << 22, '-') + "*/\n";
  constexpr int kRounds = 6;
  std::barrier sync(2);
  const auto build = [&](native::JitCompiler& jit,
                         std::vector<std::string>& failures) {
    for (int round = 0; round < kRounds; ++round) {
      const std::string source = padding + "int grover_race_probe(void) { " +
                                 "return " + std::to_string(round) + "; }\n";
      sync.arrive_and_wait();
      std::string reason;
      if (jit.compile(source, "grover_race_probe", reason) == nullptr) {
        failures.push_back(reason);
      }
    }
  };
  std::vector<std::string> firstFailures, secondFailures;
  std::thread other(build, std::ref(second), std::ref(secondFailures));
  build(first, firstFailures);
  other.join();

  EXPECT_TRUE(firstFailures.empty()) << firstFailures.front();
  EXPECT_TRUE(secondFailures.empty()) << secondFailures.front();
  // Only installed objects remain: no temp file outlives its compile.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".so") << entry.path();
  }
  fs::remove_all(dir);
}

// The measurement layer degrades the same way: with the native path
// disabled it still measures — on the interpreter — and reports why.
TEST(NativeExec, MeasureFallsBackToInterpreter) {
  perf::MeasureOptions options;
  options.allowNative = false;
  options.repetitions = 1;
  options.warmup = 0;
  const perf::Measurement m =
      perf::measure(apps::applicationById("AMD-MT"), options);
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_FALSE(m.usedNative);
  EXPECT_FALSE(m.nativeFallbackReason.empty());
  EXPECT_GT(m.measuredNp, 0.0);
}

// Engine parity: a measurement never mixes engines, so the reported np
// is a like-with-like ratio whichever path ran.
TEST(NativeExec, MeasureReportsEngine) {
  perf::MeasureOptions options;
  options.repetitions = 1;
  options.warmup = 0;
  const perf::Measurement m =
      perf::measure(apps::applicationById("AMD-SS"), options);
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_GT(m.msWithLM, 0.0);
  EXPECT_GT(m.msWithoutLM, 0.0);
  if (nativeAvailable()) {
    EXPECT_TRUE(m.usedNative) << m.nativeFallbackReason;
  } else {
    EXPECT_FALSE(m.usedNative);
  }
}

// compileAuto with measureRate = 1 must execute the served kernel for
// real and fold the measured np into the stored decision's EWMA.
TEST(NativeExec, MeasureRateUpdatesDecisionEwma) {
  service::ServiceConfig config;
  config.workers = 1;
  config.measureRate = 1;
  config.measure.repetitions = 1;
  config.measure.warmup = 0;
  service::CompileService service(config);

  service::Request request;
  request.appId = "AMD-MT";
  request.platform = "SNB";
  request.scale = apps::Scale::Test;
  const service::AutoResult r = service.compileAuto(request);
  ASSERT_TRUE(r.eligible);
  ASSERT_TRUE(r.artifact->ok) << r.artifact->diagnostics;
  ASSERT_TRUE(r.measured);
  EXPECT_GT(r.measurement.measuredNp, 0.0);

  const service::ServiceStats stats = service.stats();
  EXPECT_GE(stats.measurements, 1U);
  EXPECT_GT(stats.executeMs, 0.0);

  const auto stored = service.policyStore().lookup(r.policyKey);
  ASSERT_TRUE(stored.has_value());
  EXPECT_GE(stored->observations, 1U);
  EXPECT_GT(stored->ewmaNp, 0.0);
  EXPECT_EQ(stored->ewmaNp, r.decision.ewmaNp);
}

// A measurement that newly crosses the mismatch tolerance must trigger
// re-estimation and a decision refresh — the entry ends unflagged with
// source "refresh" and a prediction that trusts the measured EWMA.
TEST(NativeExec, MismatchTriggersDecisionRefresh) {
  service::ServiceConfig config;
  config.workers = 1;
  service::CompileService service(config);

  service::Request request;
  request.appId = "AMD-MT";
  request.platform = "SNB";
  request.scale = apps::Scale::Test;
  const service::AutoResult cold = service.compileAuto(request);
  ASSERT_TRUE(cold.eligible);
  ASSERT_TRUE(cold.artifact->ok);

  // A measured np wildly off the estimate: the first observation sets
  // the EWMA to 10, far beyond the 15% tolerance. The fresh estimate
  // still disagrees, so the refresh adopts the measurement.
  const policy::Decision d = service.recordMeasurement(cold.policyKey, 10.0);
  EXPECT_FALSE(d.mismatch);
  EXPECT_EQ(d.source, "refresh");
  EXPECT_DOUBLE_EQ(d.predictedNp, 10.0);
  EXPECT_EQ(d.variant, policy::Variant::Transformed);
  EXPECT_EQ(service.stats().policyRefreshes, 1U);
  EXPECT_EQ(service.stats().policyMismatches, 1U);

  const auto stored = service.policyStore().lookup(cold.policyKey);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->source, "refresh");
  EXPECT_FALSE(stored->mismatch);

  // A follow-up measurement in line with the new prediction must not
  // re-trigger a refresh.
  (void)service.recordMeasurement(cold.policyKey, 10.0);
  EXPECT_EQ(service.stats().policyRefreshes, 1U);
}

}  // namespace
}  // namespace grover
