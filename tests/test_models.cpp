// CPU and GPU timing models: coalescing counts, SPM bank conflicts,
// platform-observable behaviors that drive the paper's results. The GPU
// digest is also pinned exactly: against recorded Table I estimates and,
// on random traces, against the map-based coalescer it replaced. The
// cache-only models are pinned against recorded Table I estimates too.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <tuple>
#include <unordered_map>

#include "apps/app.h"
#include "grovercl/compiler.h"
#include "grovercl/harness.h"
#include "perf/cpu_model.h"
#include "perf/estimator.h"
#include "perf/gpu_model.h"

namespace grover::perf {
namespace {

rt::MemAccess globalAccess(std::uint64_t addr, std::uint32_t wi,
                           std::uint32_t instSlot, bool write = false) {
  rt::MemAccess a;
  a.space = ir::AddrSpace::Global;
  a.address = addr;
  a.size = 4;
  a.isWrite = write;
  a.group = 0;
  a.workItem = wi;
  a.instSlot = instSlot;
  return a;
}

rt::MemAccess localAccess(std::uint64_t addr, std::uint32_t wi,
                          std::uint32_t instSlot) {
  rt::MemAccess a = globalAccess(addr, wi, instSlot);
  a.space = ir::AddrSpace::Local;
  return a;
}

TEST(GpuModel, CoalescedWarpIsOneTransaction) {
  GpuModel model(fermi());
  for (std::uint32_t wi = 0; wi < 32; ++wi) {
    model.onAccess(globalAccess(0x1000 + wi * 4, wi, /*slot=*/7));
  }
  model.onGroupFinish(0, rt::InstCounters{});
  EXPECT_EQ(model.globalTransactions(), 1u);
}

TEST(GpuModel, StridedWarpSplitsIntoManyTransactions) {
  GpuModel model(fermi());
  for (std::uint32_t wi = 0; wi < 32; ++wi) {
    model.onAccess(globalAccess(0x1000 + wi * 4096, wi, 7));
  }
  model.onGroupFinish(0, rt::InstCounters{});
  EXPECT_EQ(model.globalTransactions(), 32u);
}

TEST(GpuModel, BroadcastIsOneTransaction) {
  GpuModel model(fermi());
  for (std::uint32_t wi = 0; wi < 32; ++wi) {
    model.onAccess(globalAccess(0x1000, wi, 7));  // same address
  }
  model.onGroupFinish(0, rt::InstCounters{});
  EXPECT_EQ(model.globalTransactions(), 1u);
}

TEST(GpuModel, SeparateWarpsDoNotCoalesceTogether) {
  GpuModel model(fermi());
  // 64 work-items = 2 warps; consecutive addresses within each warp.
  for (std::uint32_t wi = 0; wi < 64; ++wi) {
    model.onAccess(globalAccess(0x1000 + wi * 4, wi, 7));
  }
  model.onGroupFinish(0, rt::InstCounters{});
  EXPECT_EQ(model.globalTransactions(), 2u);
}

TEST(GpuModel, DistinctOccurrencesAreDistinctInstructions) {
  GpuModel model(fermi());
  // One work-item executes the same load twice (a loop): the two
  // executions must not coalesce with each other.
  model.onAccess(globalAccess(0x1000, 0, 7));
  model.onAccess(globalAccess(0x2000, 0, 7));
  model.onGroupFinish(0, rt::InstCounters{});
  EXPECT_EQ(model.globalTransactions(), 2u);
}

TEST(GpuModel, SpmConflictFreeVsConflicted) {
  const PlatformSpec spec = fermi();
  GpuModel conflictFree(spec);
  // 32 lanes hitting 32 different banks (stride 4B).
  for (std::uint32_t wi = 0; wi < 32; ++wi) {
    conflictFree.onAccess(localAccess(wi * 4, wi, 9));
  }
  conflictFree.onGroupFinish(0, rt::InstCounters{});

  GpuModel conflicted(spec);
  // 32 lanes striding 128B: every word maps to bank 0 → 32-way conflict.
  for (std::uint32_t wi = 0; wi < 32; ++wi) {
    conflicted.onAccess(localAccess(wi * 128, wi, 9));
  }
  conflicted.onGroupFinish(0, rt::InstCounters{});

  EXPECT_GT(conflicted.spmCyclesTotal(),
            conflictFree.spmCyclesTotal() * 16);
}

TEST(GpuModel, Wavefront64CoalescesWider) {
  GpuModel model(tahiti());  // 64-lane wavefronts
  for (std::uint32_t wi = 0; wi < 64; ++wi) {
    model.onAccess(globalAccess(0x1000 + wi * 4, wi, 7));
  }
  model.onGroupFinish(0, rt::InstCounters{});
  EXPECT_EQ(model.globalTransactions(), 2u);  // 256B over 128B segments
}

// The GPU digest as first written: every access is filed in an ordered map
// keyed by (warp, instSlot, occurrence), and each entry coalesces through
// a std::set. Slow, but obviously in (warp, slot, occurrence) order, so it
// is the oracle for GpuModel::digestGroup.
namespace map_oracle {

constexpr std::uint32_t kSegmentBytes = 128;

struct WarpAccess {
  std::vector<std::uint64_t> addresses;
  std::vector<std::uint32_t> sizes;
  bool isLocal = false;
  bool isWrite = false;
};
using PendingMap =
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
             WarpAccess>;

void addPending(const PlatformSpec& spec, PendingMap& pending,
                std::unordered_map<std::uint64_t, std::uint32_t>& occurrence,
                const rt::MemAccess& access) {
  const std::uint32_t warp = access.workItem / spec.warpSize;
  const std::uint64_t occKey =
      (std::uint64_t{access.workItem} << 32) | access.instSlot;
  const std::uint32_t occ = occurrence[occKey]++;
  WarpAccess& wa = pending[{warp, access.instSlot, occ}];
  wa.addresses.push_back(access.address);
  wa.sizes.push_back(access.size);
  wa.isLocal = access.space == ir::AddrSpace::Local;
  wa.isWrite = access.isWrite;
}

GpuModel::GroupDigest digestPending(const PlatformSpec& spec,
                                    const PendingMap& pending) {
  GpuModel::GroupDigest digest;
  for (const auto& [key, wa] : pending) {
    (void)key;
    if (wa.isLocal) {
      std::map<std::uint32_t, std::set<std::uint64_t>> bankWords;
      for (std::size_t i = 0; i < wa.addresses.size(); ++i) {
        const std::uint64_t word = wa.addresses[i] / 4;
        bankWords[static_cast<std::uint32_t>(word % spec.spmBanks)]
            .insert(word);
      }
      std::size_t degree = 1;
      for (const auto& [bank, words] : bankWords) {
        (void)bank;
        degree = std::max(degree, words.size());
      }
      digest.spmCycles += spec.spmCycles * static_cast<double>(degree);
      continue;
    }
    std::set<std::uint64_t> segments;
    for (std::size_t i = 0; i < wa.addresses.size(); ++i) {
      const std::uint64_t first = wa.addresses[i] / kSegmentBytes;
      const std::uint64_t last =
          (wa.addresses[i] + std::max<std::uint32_t>(wa.sizes[i], 1) - 1) /
          kSegmentBytes;
      for (std::uint64_t s = first; s <= last; ++s) segments.insert(s);
    }
    for (std::uint64_t segment : segments) {
      digest.segments.push_back(segment * kSegmentBytes);
    }
  }
  return digest;
}

GpuModel::GroupDigest digestGroup(const PlatformSpec& spec,
                                  const rt::GroupTrace& trace) {
  PendingMap pending;
  std::unordered_map<std::uint64_t, std::uint32_t> occurrence;
  for (const rt::MemAccess& access : trace.accesses) {
    if (access.space == ir::AddrSpace::Private) continue;
    addPending(spec, pending, occurrence, access);
  }
  GpuModel::GroupDigest digest = digestPending(spec, pending);
  digest.counters = trace.counters;
  return digest;
}

}  // namespace map_oracle

/// One static load/store of a random kernel: where it points and how it
/// moves with the lane and the loop iteration.
struct RandomSlot {
  std::uint32_t slot = 0;
  ir::AddrSpace space = ir::AddrSpace::Global;
  bool mixedSpaces = false;  // space drawn per access (never in real IR)
  std::uint64_t base = 0;
  std::uint64_t laneStride = 0;
  std::uint64_t iterStride = 0;
  std::uint32_t size = 4;
};

/// A random group trace shaped like the interpreter's: barrier regions
/// run work-item by work-item, each work-item looping over the region's
/// slots a possibly divergent number of times.
rt::GroupTrace randomGroupTrace(std::mt19937_64& rng,
                                std::uint32_t groupSize) {
  const auto pick = [&](auto const& options) {
    return options[rng() % std::size(options)];
  };
  const ir::AddrSpace spaces[] = {
      ir::AddrSpace::Global, ir::AddrSpace::Global, ir::AddrSpace::Local,
      ir::AddrSpace::Local, ir::AddrSpace::Constant, ir::AddrSpace::Private};
  // 128 bytes = 32 banks of 4: every lane on one bank (32-way conflict).
  const std::uint64_t laneStrides[] = {0, 4, 4, 8, 12, 128, 132, 4096, 36};
  const std::uint64_t iterStrides[] = {0, 4, 128, 1024, 65536};
  const std::uint32_t sizes[] = {4, 4, 8, 16, 0, 1, 130, 300};
  const std::uint32_t maxTrips[] = {1, 1, 2, 3, 8, 40};

  rt::GroupTrace trace;
  trace.group = static_cast<std::uint32_t>(rng() % 64);
  const std::uint32_t regions = 1 + static_cast<std::uint32_t>(rng() % 3);
  for (std::uint32_t region = 0; region < regions; ++region) {
    std::vector<RandomSlot> body(1 + rng() % 5);
    for (RandomSlot& s : body) {
      s.slot = static_cast<std::uint32_t>(rng() % 400);
      s.space = pick(spaces);
      s.mixedSpaces = rng() % 10 == 0;
      // Unaligned bases make accesses straddle 128-byte segments.
      s.base = (s.space == ir::AddrSpace::Local
                    ? 0
                    : rt::bufferBaseAddress(
                          static_cast<std::uint32_t>(rng() % 3))) +
               rng() % 256;
      s.laneStride = pick(laneStrides);
      s.iterStride = pick(iterStrides);
      s.size = pick(sizes);
    }
    const std::uint32_t trips = pick(maxTrips);
    const bool divergent = rng() % 2 == 0;
    for (std::uint32_t wi = 0; wi < groupSize; ++wi) {
      const std::uint32_t n =
          divergent ? 1 + static_cast<std::uint32_t>(rng() % trips) : trips;
      for (std::uint32_t it = 0; it < n; ++it) {
        for (const RandomSlot& s : body) {
          rt::MemAccess a;
          a.space = s.mixedSpaces ? pick(spaces) : s.space;
          a.address = s.base + wi * s.laneStride + it * s.iterStride;
          a.size = s.size;
          a.isWrite = rng() % 2 == 0;
          a.group = trace.group;
          a.workItem = wi;
          a.instSlot = s.slot;
          trace.accesses.push_back(a);
        }
      }
    }
    trace.barriers.push_back(
        static_cast<std::uint32_t>(trace.accesses.size()));
  }
  trace.counters.intAlu = rng() % 1000;
  trace.counters.floatAlu = rng() % 1000;
  trace.counters.globalLoad = rng() % 100;
  trace.counters.localStore = rng() % 100;
  trace.counters.barrier = regions;
  return trace;
}

bool sameCounters(const rt::InstCounters& a, const rt::InstCounters& b) {
  return a.intAlu == b.intAlu && a.floatAlu == b.floatAlu &&
         a.vectorAlu == b.vectorAlu && a.mathCall == b.mathCall &&
         a.branch == b.branch && a.globalLoad == b.globalLoad &&
         a.globalStore == b.globalStore && a.localLoad == b.localLoad &&
         a.localStore == b.localStore &&
         a.privateAccess == b.privateAccess && a.barrier == b.barrier &&
         a.other == b.other;
}

TEST(GpuModel, FlatDigestMatchesMapOracle) {
  // Group sizes include ones that leave a partial last warp: 48 on
  // 32-lane Fermi/Kepler, 100 on 64-lane Tahiti.
  const std::pair<PlatformSpec, std::vector<std::uint32_t>> cases[] = {
      {fermi(), {48, 32, 1, 33, 256}},
      {kepler(), {48, 192, 17}},
      {tahiti(), {100, 64, 256, 3}},
  };
  std::mt19937_64 rng(0x6d61705f6f72636cULL);
  std::size_t runsWithSegments = 0;
  std::size_t runsWithSpm = 0;
  for (const auto& [spec, groupSizes] : cases) {
    const GpuModel model(spec);
    for (int iter = 0; iter < 100; ++iter) {
      const std::uint32_t groupSize = groupSizes[iter % groupSizes.size()];
      const rt::GroupTrace trace = randomGroupTrace(rng, groupSize);
      const GpuModel::GroupDigest flat = model.digestGroup(0, trace);
      const GpuModel::GroupDigest oracle =
          map_oracle::digestGroup(spec, trace);
      EXPECT_EQ(flat.spmCycles, oracle.spmCycles)
          << spec.name << " trace " << iter;
      EXPECT_EQ(flat.segments, oracle.segments)
          << spec.name << " trace " << iter;
      EXPECT_TRUE(sameCounters(flat.counters, oracle.counters))
          << spec.name << " trace " << iter;
      runsWithSegments += oracle.segments.empty() ? 0 : 1;
      runsWithSpm += oracle.spmCycles > 0 ? 1 : 0;
    }
  }
  // The generator really exercised both halves of the model.
  EXPECT_GT(runsWithSegments, 150u);
  EXPECT_GT(runsWithSpm, 150u);

  // Degenerate traces: empty, and private accesses only.
  const GpuModel model(fermi());
  rt::GroupTrace empty;
  EXPECT_TRUE(model.digestGroup(0, empty).segments.empty());
  rt::GroupTrace privateOnly;
  rt::MemAccess a = globalAccess(0x40, 5, 3);
  a.space = ir::AddrSpace::Private;
  privateOnly.accesses.push_back(a);
  const GpuModel::GroupDigest d = model.digestGroup(0, privateOnly);
  EXPECT_TRUE(d.segments.empty());
  EXPECT_EQ(d.spmCycles, 0.0);
}

/// GPU estimates of the Table I apps at Test scale, recorded with the
/// map-based coalescer. Exact: cycles as hexfloat, transactions, and
/// scratch-pad cycles.
struct PinnedEstimate {
  const char* app;
  const char* platform;
  bool transformed;
  double cycles;
  std::uint64_t transactions;
  double spmCycles;
};
const PinnedEstimate kPinnedEstimates[] = {
    {"AMD-SS", "Fermi", false, 0x1.8ea5051eb851fp+16, 4145u, 0x1.08p+12},
    {"AMD-SS", "Fermi", true, 0x1.c90cp+16, 6129u, 0x0p+0},
    {"AMD-SS", "Kepler", false, 0x1.61d63d70a3d7p+16, 4145u, 0x1.8cp+11},
    {"AMD-SS", "Kepler", true, 0x1.6544p+16, 6129u, 0x0p+0},
    {"AMD-SS", "Tahiti", false, 0x1.454775c28f5c2p+16, 3185u, 0x1.1p+11},
    {"AMD-SS", "Tahiti", true, 0x1.196b4cccccccdp+16, 4145u, 0x0p+0},
    {"AMD-MT", "Fermi", false, 0x1.a8p+15, 1536u, 0x1p+11},
    {"AMD-MT", "Fermi", true, 0x1.a8p+15, 1536u, 0x0p+0},
    {"AMD-MT", "Kepler", false, 0x1.58p+15, 1536u, 0x1.8p+10},
    {"AMD-MT", "Kepler", true, 0x1.58p+15, 1536u, 0x0p+0},
    {"AMD-MT", "Tahiti", false, 0x1.dp+14, 1024u, 0x1p+11},
    {"AMD-MT", "Tahiti", true, 0x1.dp+14, 1024u, 0x0p+0},
    {"NVD-MT", "Fermi", false, 0x1.1bf5c28f5c28ep+14, 512u, 0x1.2p+11},
    {"NVD-MT", "Fermi", true, 0x1.78p+15, 2304u, 0x0p+0},
    {"NVD-MT", "Kepler", false, 0x1.ef8a3d70a3d73p+13, 512u, 0x1.bp+10},
    {"NVD-MT", "Kepler", true, 0x1.28p+15, 2304u, 0x0p+0},
    {"NVD-MT", "Tahiti", false, 0x1.1170a3d70a3d7p+14, 512u, 0x1.4p+10},
    {"NVD-MT", "Tahiti", true, 0x1.24p+14, 1280u, 0x0p+0},
    {"AMD-RG", "Fermi", false, 0x1.88p+14, 1024u, 0x1.8p+9},
    {"AMD-RG", "Fermi", true, 0x1.0cp+15, 1536u, 0x0p+0},
    {"AMD-RG", "Kepler", false, 0x1.38p+14, 1024u, 0x1.2p+9},
    {"AMD-RG", "Kepler", true, 0x1.a8p+14, 1536u, 0x0p+0},
    {"AMD-RG", "Tahiti", false, 0x1.2a947ae147adep+14, 1024u, 0x1p+9},
    {"AMD-RG", "Tahiti", true, 0x1.fp+13, 1024u, 0x0p+0},
    {"AMD-MM", "Fermi", false, 0x1.faeb851eb851fp+17, 8832u, 0x1.1p+13},
    {"AMD-MM", "Fermi", true, 0x1.c18p+17, 12416u, 0x0p+0},
    {"AMD-MM", "Kepler", false, 0x1.c3ca3d70a3d71p+17, 8832u, 0x1.98p+12},
    {"AMD-MM", "Kepler", true, 0x1.749c28f5c28f7p+17, 12416u, 0x0p+0},
    {"AMD-MM", "Tahiti", false, 0x1.ad28f5c28f5c2p+17, 8832u, 0x1.2p+12},
    {"AMD-MM", "Tahiti", true, 0x1.455c28f5c28f7p+17, 10368u, 0x0p+0},
    {"NVD-MM-A", "Fermi", false, 0x1.efd70a3d70a3ep+17, 1152u, 0x1.1p+14},
    {"NVD-MM-A", "Fermi", true, 0x1.d1851eb851eb8p+17, 8832u, 0x1.1p+13},
    {"NVD-MM-A", "Kepler", false, 0x1.b7947ae147ae1p+17, 1152u, 0x1.98p+13},
    {"NVD-MM-A", "Kepler", true, 0x1.9efd70a3d70a2p+17, 8832u, 0x1.98p+12},
    {"NVD-MM-A", "Tahiti", false, 0x1.a851eb851eb87p+17, 1152u, 0x1.ap+13},
    {"NVD-MM-A", "Tahiti", true, 0x1.8cf5c28f5c29p+17, 8832u, 0x1.2p+12},
    {"NVD-MM-B", "Fermi", false, 0x1.efd70a3d70a3ep+17, 1152u, 0x1.1p+14},
    {"NVD-MM-B", "Fermi", true, 0x1.d0147ae147ae1p+17, 4736u, 0x1.1p+13},
    {"NVD-MM-B", "Kepler", false, 0x1.b7947ae147ae1p+17, 1152u, 0x1.98p+13},
    {"NVD-MM-B", "Kepler", true, 0x1.9db5c28f5c28fp+17, 4736u, 0x1.98p+12},
    {"NVD-MM-B", "Tahiti", false, 0x1.a851eb851eb87p+17, 1152u, 0x1.ap+13},
    {"NVD-MM-B", "Tahiti", true, 0x1.93d70a3d70a3fp+17, 2688u, 0x1.1p+13},
    {"NVD-MM-AB", "Fermi", false, 0x1.efd70a3d70a3ep+17, 1152u, 0x1.1p+14},
    {"NVD-MM-AB", "Fermi", true, 0x1.c18p+17, 12416u, 0x0p+0},
    {"NVD-MM-AB", "Kepler", false, 0x1.b7947ae147ae1p+17, 1152u, 0x1.98p+13},
    {"NVD-MM-AB", "Kepler", true, 0x1.6806666666668p+17, 12416u, 0x0p+0},
    {"NVD-MM-AB", "Tahiti", false, 0x1.a851eb851eb87p+17, 1152u, 0x1.ap+13},
    {"NVD-MM-AB", "Tahiti", true, 0x1.375c28f5c28f7p+17, 10368u, 0x0p+0},
    {"NVD-NBody", "Fermi", false, 0x1.0228f5c28f5c2p+18, 192u, 0x1.1p+12},
    {"NVD-NBody", "Fermi", true, 0x1.00feb851eb852p+18, 2112u, 0x0p+0},
    {"NVD-NBody", "Kepler", false, 0x1.ca370a3d70a3ep+17, 192u, 0x1.98p+11},
    {"NVD-NBody", "Kepler", true, 0x1.c8e147ae147aep+17, 2112u, 0x0p+0},
    {"NVD-NBody", "Tahiti", false, 0x1.945c28f5c28f6p+17, 192u, 0x1.2p+11},
    {"NVD-NBody", "Tahiti", true, 0x1.8fc51eb851eb9p+17, 1088u, 0x0p+0},
    {"PAB-ST", "Fermi", false, 0x1.1153d70a3d70ap+15, 1328u, 0x1.c8p+11},
    {"PAB-ST", "Fermi", true, 0x1.7658p+15, 2272u, 0x0p+0},
    {"PAB-ST", "Kepler", false, 0x1.d7cc28f5c28f4p+14, 1328u, 0x1.56p+11},
    {"PAB-ST", "Kepler", true, 0x1.26e8p+15, 2272u, 0x0p+0},
    {"PAB-ST", "Tahiti", false, 0x1.d2eb851eb851fp+14, 1328u, 0x1.48p+11},
    {"PAB-ST", "Tahiti", true, 0x1.d27p+14, 2272u, 0x0p+0},
    {"ROD-SC", "Fermi", false, 0x1.c19570a3d70a4p+14, 800u, 0x1.08p+10},
    {"ROD-SC", "Fermi", true, 0x1.03p+15, 1056u, 0x0p+0},
    {"ROD-SC", "Kepler", false, 0x1.6f0747ae147aep+14, 800u, 0x1.8cp+9},
    {"ROD-SC", "Kepler", true, 0x1.a2c147ae147aep+14, 1056u, 0x0p+0},
    {"ROD-SC", "Tahiti", false, 0x1.481cccccccccdp+14, 800u, 0x1.1p+9},
    {"ROD-SC", "Tahiti", true, 0x1.2f44ccccccccep+14, 800u, 0x0p+0},
};

TEST(GpuModel, EstimatesArePinned) {
  std::size_t checked = 0;
  for (const auto& app : apps::allApplications()) {
    KernelPair pair = prepareKernelPair(*app);
    for (const PinnedEstimate& pin : kPinnedEstimates) {
      if (app->id() != pin.app) continue;
      apps::Instance instance = app->makeInstance(apps::Scale::Test);
      const PerfEstimate est = estimate(
          *findPlatform(pin.platform),
          pin.transformed ? *pair.transformedKernel : *pair.originalKernel,
          instance.range, instance.args, instance.benchSampleStride, 1);
      const std::string what = std::string(pin.app) + " on " + pin.platform +
                               (pin.transformed ? " transformed" : " original");
      EXPECT_EQ(est.cycles, pin.cycles) << what;
      EXPECT_EQ(est.transactions, pin.transactions) << what;
      EXPECT_EQ(est.spmCycles, pin.spmCycles) << what;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kPinnedEstimates));
}

/// Cache-only estimates of the Table I apps at Test scale, recorded with
/// eagerly built per-thread caches. Exact: cycles and memory cycles as
/// hexfloat, and the L1 hit rate.
struct PinnedCpuEstimate {
  const char* app;
  const char* platform;
  bool transformed;
  double cycles;
  double memoryCycles;
  double l1HitRate;
};
const PinnedCpuEstimate kPinnedCpuEstimates[] = {
    {"AMD-SS", "SNB", false, 0x1.9d9e33333317ap+16, 0x1.7837666666915p+18, 0x1.fdba24c90fc1bp-1},
    {"AMD-SS", "SNB", true, 0x1.71016666664b6p+16, 0x1.71c433333359fp+18, 0x1.fdc0dde0fb12dp-1},
    {"AMD-SS", "Nehalem", false, 0x1.d6dea66665f78p+17, 0x1.c4718000008e4p+18, 0x1.fdc97b1e03f44p-1},
    {"AMD-SS", "Nehalem", true, 0x1.a4dfd99999248p+17, 0x1.bda980000089dp+18, 0x1.fdc8a6e54c933p-1},
    {"AMD-SS", "MIC", false, 0x1.51cd333333333p+17, 0x1.3de24p+18, 0x1.fd66bf5b1feecp-1},
    {"AMD-SS", "MIC", true, 0x1.48e00ccccccccp+17, 0x1.30e32p+18, 0x1.fd960c493ad0ap-1},
    {"AMD-MT", "SNB", false, 0x1.1ad19999999e2p+15, 0x1.63333333333c1p+18, 0x1.ap-1},
    {"AMD-MT", "SNB", true, 0x1.4dd6666666643p+14, 0x1.ccccccccccc84p+17, 0x1.8p-1},
    {"AMD-MT", "Nehalem", false, 0x1.4a60000000093p+16, 0x1.a6ccccccccde1p+18, 0x1.bp-1},
    {"AMD-MT", "Nehalem", true, 0x1.bc0cccccccd43p+15, 0x1.44ccccccccce8p+18, 0x1.8p-1},
    {"AMD-MT", "MIC", false, 0x1.a61999999999ap+16, 0x1.104p+19, 0x1.ap-1},
    {"AMD-MT", "MIC", true, 0x1.5c2p+16, 0x1.67p+18, 0x1.8p-1},
    {"NVD-MT", "SNB", false, 0x1.9d0999999996ap+14, 0x1.d6666666665a4p+16, 0x1.e8p-1},
    {"NVD-MT", "SNB", true, 0x1.6eep+13, 0x1.2000000000001p+16, 0x1.ep-1},
    {"NVD-MT", "Nehalem", false, 0x1.d9c0000000134p+15, 0x1.16999999998bdp+17, 0x1.ecp-1},
    {"NVD-MT", "Nehalem", true, 0x1.c419999999951p+14, 0x1.87fffffffff74p+16, 0x1.ep-1},
    {"NVD-MT", "MIC", false, 0x1.508199999999ap+16, 0x1.344p+17, 0x1.e8p-1},
    {"NVD-MT", "MIC", true, 0x1.1d76666666666p+16, 0x1.8bp+16, 0x1.ep-1},
    {"AMD-RG", "SNB", false, 0x1.042cccccccd23p+15, 0x1.a66666666660bp+16, 0x1.dep-1},
    {"AMD-RG", "SNB", true, 0x1.368ccccccccccp+14, 0x1.3f3333333332p+16, 0x1.cp-1},
    {"AMD-RG", "Nehalem", false, 0x1.29c33333333d3p+16, 0x1.06266666665cp+17, 0x1.e7p-1},
    {"AMD-RG", "Nehalem", true, 0x1.6a00000000032p+15, 0x1.9fccccccccc68p+16, 0x1.dp-1},
    {"AMD-RG", "MIC", false, 0x1.0846333333333p+17, 0x1.dbfd4p+17, 0x1.d888p-1},
    {"AMD-RG", "MIC", true, 0x1.f9bccccccccccp+16, 0x1.73p+17, 0x1.cp-1},
    {"AMD-MM", "SNB", false, 0x1.f22a333332ff8p+18, 0x1.6eaccccccc3a1p+19, 0x1.fdaa0b3630958p-1},
    {"AMD-MM", "SNB", true, 0x1.8036ffffffd73p+18, 0x1.54dfffffff9bdp+19, 0x1.fdc47711dc477p-1},
    {"AMD-MM", "Nehalem", false, 0x1.18a3999999bf8p+19, 0x1.b64999999abe8p+19, 0x1.fdaa0b3630958p-1},
    {"AMD-MM", "Nehalem", true, 0x1.b110cccccd17fp+18, 0x1.9670000001134p+19, 0x1.fdc47711dc477p-1},
    {"AMD-MM", "MIC", false, 0x1.2156cccccccccp+19, 0x1.39fp+19, 0x1.fdaa0b3630958p-1},
    {"AMD-MM", "MIC", true, 0x1.dff7999999999p+18, 0x1.2318p+19, 0x1.fdc47711dc477p-1},
    {"NVD-MM-A", "SNB", false, 0x1.e51d666666205p+18, 0x1.8879999998c2p+19, 0x1.fd9289b5d928ap-1},
    {"NVD-MM-A", "SNB", true, 0x1.d56a333332ff8p+18, 0x1.6eaccccccc3a1p+19, 0x1.fdaa0b3630958p-1},
    {"NVD-MM-A", "Nehalem", false, 0x1.11e53333335d4p+19, 0x1.d62333333476ep+19, 0x1.fd9289b5d928ap-1},
    {"NVD-MM-A", "Nehalem", true, 0x1.08d3999999bf8p+19, 0x1.b64999999abe8p+19, 0x1.fdaa0b3630958p-1},
    {"NVD-MM-A", "MIC", false, 0x1.187e99999999ap+19, 0x1.50c8p+19, 0x1.fd9289b5d928ap-1},
    {"NVD-MM-A", "MIC", true, 0x1.1016cccccccccp+19, 0x1.39fp+19, 0x1.fdaa0b3630958p-1},
    {"NVD-MM-B", "SNB", false, 0x1.e51d666666205p+18, 0x1.8879999998c2p+19, 0x1.fd9289b5d928ap-1},
    {"NVD-MM-B", "SNB", true, 0x1.d46a333332fep+18, 0x1.6eaccccccc38ep+19, 0x1.fdaa0b3630958p-1},
    {"NVD-MM-B", "Nehalem", false, 0x1.11e53333335d4p+19, 0x1.d62333333476ep+19, 0x1.fd9289b5d928ap-1},
    {"NVD-MM-B", "Nehalem", true, 0x1.0846ccccccf27p+19, 0x1.b64999999abe6p+19, 0x1.fdaa0b3630958p-1},
    {"NVD-MM-B", "MIC", false, 0x1.187e99999999ap+19, 0x1.50c8p+19, 0x1.fd9289b5d928ap-1},
    {"NVD-MM-B", "MIC", true, 0x1.0f7d333333333p+19, 0x1.39fp+19, 0x1.fdaa0b3630958p-1},
    {"NVD-MM-AB", "SNB", false, 0x1.e51d666666205p+18, 0x1.8879999998c2p+19, 0x1.fd9289b5d928ap-1},
    {"NVD-MM-AB", "SNB", true, 0x1.73b6ffffffd73p+18, 0x1.54dfffffff9bdp+19, 0x1.fdc47711dc477p-1},
    {"NVD-MM-AB", "Nehalem", false, 0x1.11e53333335d4p+19, 0x1.d62333333476ep+19, 0x1.fd9289b5d928ap-1},
    {"NVD-MM-AB", "Nehalem", true, 0x1.a350cccccd17fp+18, 0x1.9670000001134p+19, 0x1.fdc47711dc477p-1},
    {"NVD-MM-AB", "MIC", false, 0x1.187e99999999ap+19, 0x1.50c8p+19, 0x1.fd9289b5d928ap-1},
    {"NVD-MM-AB", "MIC", true, 0x1.d0f7999999999p+18, 0x1.2318p+19, 0x1.fdc47711dc477p-1},
    {"NVD-NBody", "SNB", false, 0x1.8181e666666f2p+19, 0x1.6ca6666666e65p+17, 0x1.fd1cdf4737d1dp-1},
    {"NVD-NBody", "SNB", true, 0x1.7d25199999a2cp+19, 0x1.55d999999a148p+17, 0x1.fd84f613d84f6p-1},
    {"NVD-NBody", "Nehalem", false, 0x1.ab73999999a4p+19, 0x1.b606666666e57p+17, 0x1.fd1cdf4737d1dp-1},
    {"NVD-NBody", "Nehalem", true, 0x1.a616ccccccd77p+19, 0x1.97eccccccd41fp+17, 0x1.fd84f613d84f6p-1},
    {"NVD-NBody", "MIC", false, 0x1.dd3f999999999p+19, 0x1.49ap+17, 0x1.fd1cdf4737d1dp-1},
    {"NVD-NBody", "MIC", true, 0x1.dc7e333333333p+19, 0x1.2dfp+17, 0x1.fd84f613d84f6p-1},
    {"PAB-ST", "SNB", false, 0x1.52f1999999944p+15, 0x1.6838666666528p+17, 0x1.eb0f0f0f0f0f1p-1},
    {"PAB-ST", "SNB", true, 0x1.c23cccccccc73p+14, 0x1.e5d733333326fp+16, 0x1.e955555555555p-1},
    {"PAB-ST", "Nehalem", false, 0x1.85446666667bep+16, 0x1.a874ffffffdb7p+17, 0x1.ed87878787878p-1},
    {"PAB-ST", "Nehalem", true, 0x1.0bea00000010cp+16, 0x1.3ed833333321p+17, 0x1.e955555555555p-1},
    {"PAB-ST", "MIC", false, 0x1.a13e4cccccccdp+16, 0x1.2446p+18, 0x1.eb0f0f0f0f0f1p-1},
    {"PAB-ST", "MIC", true, 0x1.6e8f99999999ap+16, 0x1.b8bp+17, 0x1.e955555555555p-1},
    {"ROD-SC", "SNB", false, 0x1.33ab333333384p+15, 0x1.127b333333382p+18, 0x1.f03d226357e17p-2},
    {"ROD-SC", "SNB", true, 0x1.4a4b3333333bfp+15, 0x1.5a080000000fep+18, 0x1.f07c1f07c1f08p-8},
    {"ROD-SC", "Nehalem", false, 0x1.62db333333334p+16, 0x1.5104666666666p+18, 0x1.f07a44c6afc2ep-2},
    {"ROD-SC", "Nehalem", true, 0x1.78873333331e6p+16, 0x1.9a62ccccccb07p+18, 0x1.f07c1f07c1f08p-8},
    {"ROD-SC", "MIC", false, 0x1.94684cccccccdp+16, 0x1.55c8p+18, 0x1.f03d226357e17p-2},
    {"ROD-SC", "MIC", true, 0x1.9f8accccccccdp+16, 0x1.9052p+18, 0x1.f07c1f07c1f08p-8},
};

TEST(CpuModel, EstimatesArePinned) {
  std::size_t checked = 0;
  for (const auto& app : apps::allApplications()) {
    KernelPair pair = prepareKernelPair(*app);
    for (const PinnedCpuEstimate& pin : kPinnedCpuEstimates) {
      if (app->id() != pin.app) continue;
      apps::Instance instance = app->makeInstance(apps::Scale::Test);
      const PerfEstimate est = estimate(
          *findPlatform(pin.platform),
          pin.transformed ? *pair.transformedKernel : *pair.originalKernel,
          instance.range, instance.args, instance.benchSampleStride, 1);
      const std::string what = std::string(pin.app) + " on " + pin.platform +
                               (pin.transformed ? " transformed" : " original");
      EXPECT_EQ(est.cycles, pin.cycles) << what;
      EXPECT_EQ(est.memoryCycles, pin.memoryCycles) << what;
      EXPECT_EQ(est.l1HitRate, pin.l1HitRate) << what;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kPinnedCpuEstimates));
}

TEST(CpuModel, LocalArenaIsReusedPerThread) {
  // Two groups on one modeled thread: the second group's local traffic
  // must hit the cache warmed by the first.
  PlatformSpec spec = snb();
  spec.hwThreads = 1;
  CpuModel model(spec);
  for (int group = 0; group < 2; ++group) {
    for (std::uint32_t wi = 0; wi < 16; ++wi) {
      rt::MemAccess a = localAccess(wi * 4, wi, 3);
      a.group = static_cast<std::uint32_t>(group);
      model.onAccess(a);
    }
    model.onGroupFinish(static_cast<std::uint32_t>(group),
                        rt::InstCounters{});
  }
  EXPECT_GT(model.l1HitRate(), 0.9);  // only the first line misses
}

TEST(CpuModel, BusiestThreadBoundsTotal) {
  PlatformSpec spec = snb();
  spec.hwThreads = 2;
  CpuModel model(spec);
  rt::InstCounters heavy;
  heavy.intAlu = 1000;
  // Three groups round-robin onto 2 threads: thread 0 gets two groups.
  model.onGroupFinish(0, heavy);
  model.onGroupFinish(1, heavy);
  model.onGroupFinish(2, heavy);
  const double total = model.totalCycles();
  const double perGroup = 1000 * spec.cpi + spec.groupOverheadCycles;
  EXPECT_DOUBLE_EQ(total, 2 * perGroup);
}

TEST(CpuModel, BarrierCostCharged) {
  PlatformSpec spec = snb();
  CpuModel model(spec);
  rt::InstCounters counters;
  counters.barrier = 10;
  model.onGroupFinish(0, counters);
  EXPECT_GE(model.totalCycles(), 10 * spec.barrierCycles);
}

TEST(Estimator, ClassifyThreshold) {
  EXPECT_EQ(classify(1.10), Outcome::Gain);
  EXPECT_EQ(classify(0.90), Outcome::Loss);
  EXPECT_EQ(classify(1.04), Outcome::Similar);
  EXPECT_EQ(classify(0.96), Outcome::Similar);
  EXPECT_EQ(classify(1.2, 0.3), Outcome::Similar);  // custom threshold
}

TEST(Estimator, NormalizedPerformanceOrientation) {
  // np > 1 ⇔ the no-local-memory version is faster (fewer cycles).
  EXPECT_GT(normalizedPerformance(200, 100), 1.0);
  EXPECT_LT(normalizedPerformance(100, 200), 1.0);
}

TEST(Estimator, EndToEndOnTinyKernel) {
  auto program = compile(R"(
__kernel void k(__global float* out) {
  out[get_global_id(0)] = 1.0f;
})");
  ir::Function* fn = program.kernel("k");
  rt::Buffer out = rt::Buffer::zeros<float>(64);
  for (const PlatformSpec& p : allPlatforms()) {
    PerfEstimate est = estimate(p, *fn, rt::NDRange::make1D(64, 16),
                                {rt::KernelArg::buffer(&out)});
    EXPECT_GT(est.cycles, 0) << p.name;
    EXPECT_EQ(est.counters.globalStore, 64u) << p.name;
  }
}

TEST(Estimator, SamplingScalesCycles) {
  auto program = compile(R"(
__kernel void k(__global float* out) {
  out[get_global_id(0)] = 2.0f;
})");
  ir::Function* fn = program.kernel("k");
  rt::Buffer out1 = rt::Buffer::zeros<float>(1024);
  PerfEstimate full = estimate(snb(), *fn, rt::NDRange::make1D(1024, 16),
                               {rt::KernelArg::buffer(&out1)}, 1);
  rt::Buffer out2 = rt::Buffer::zeros<float>(1024);
  PerfEstimate sampled = estimate(snb(), *fn, rt::NDRange::make1D(1024, 16),
                                  {rt::KernelArg::buffer(&out2)}, 4);
  // Sampled estimate lands within 2x of the full estimate (homogeneous
  // groups; cache state differs slightly).
  EXPECT_GT(sampled.cycles, full.cycles * 0.5);
  EXPECT_LT(sampled.cycles, full.cycles * 2.0);
}

TEST(Platforms, SpecsAreSane) {
  for (const PlatformSpec& p : allPlatforms()) {
    EXPECT_FALSE(p.name.empty());
    if (p.kind == PlatformKind::CpuCacheOnly) {
      EXPECT_GE(p.privateLevels.size(), 1u);
      EXPECT_GT(p.hwThreads, 0u);
      EXPECT_GT(p.memCycles, p.privateLevels[0].hitCycles);
    } else {
      EXPECT_TRUE(p.warpSize == 32 || p.warpSize == 64);
      EXPECT_GT(p.transactionCycles, 0);
    }
  }
  EXPECT_EQ(cacheOnlyPlatforms().size(), 3u);
  EXPECT_EQ(allPlatforms().size(), 6u);
}

}  // namespace
}  // namespace grover::perf
