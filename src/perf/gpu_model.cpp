#include "perf/gpu_model.h"

#include <algorithm>

namespace grover::perf {

namespace {
constexpr std::uint32_t kSegmentBytes = 128;  // coalescing segment

/// The work arrays of digestGroup, about 8 bytes per access. Each thread
/// keeps one set for its lifetime and reuses it group after group and
/// estimate after estimate. Allocating them per group, or even per
/// estimate, churned the allocator's per-thread heaps: on a loaded host
/// the policy_hit benchmark's peak RSS rose by 9-18 MiB.
struct DigestScratch {
  std::vector<std::uint32_t> slotId;
  std::vector<std::uint32_t> warpCell;
  std::vector<std::uint32_t> occurrences;
  std::vector<std::uint32_t> cellBase;
  std::vector<std::uint32_t> runOf;
  std::vector<std::uint32_t> runStart;
  std::vector<std::uint32_t> next;
  std::vector<std::uint32_t> order;
  std::vector<std::uint64_t> sorted;
  std::vector<std::uint32_t> bankWords;
};
}  // namespace

GpuModel::GpuModel(const PlatformSpec& spec) : spec_(spec) {
  if (spec_.gpuCache.bytes != 0) {
    CacheLevelSpec cacheSpec = spec_.gpuCache;
    cacheSpec.lineSize = kSegmentBytes;
    cache_ = std::make_unique<CacheLevel>(cacheSpec);
  }
}

void GpuModel::onAccess(const rt::MemAccess& access) {
  if (access.space == ir::AddrSpace::Private) {
    return;  // registers/private: charged via instruction counters
  }
  pending_.accesses.push_back(access);
}

void GpuModel::onBarrier(std::uint32_t group) { (void)group; }

GpuModel::GroupDigest GpuModel::digestGroup(unsigned shard,
                                            const rt::GroupTrace& trace) const {
  (void)shard;
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  const std::vector<rt::MemAccess>& accesses = trace.accesses;
  const auto isPrivate = [](const rt::MemAccess& a) {
    return a.space == ir::AddrSpace::Private;
  };
  GroupDigest digest;
  digest.counters = trace.counters;

  // A run is the set of accesses one warp makes when its work-items
  // execute the same load/store (instSlot) for the same time (occurrence:
  // the k-th execution of that slot by each work-item). Runs must be
  // visited in ascending (warp, instSlot, occurrence) order, the order the
  // segments replay against the device cache and spmCycles accumulates.
  //
  // Slots get dense ids in ascending instSlot order, so the cells
  // (warp, slot id) are numbered in (warp, instSlot) order. Every
  // occurrence below a cell's maximum is executed by at least one of the
  // warp's work-items, so the runs of a cell are exactly occurrences
  // 0..max-1, none empty: laying cells out back to back gives every run
  // the id cellBase[cell] + occurrence, already in the required order.
  // Indices are 32-bit: a group's trace holds fewer than 2^32 accesses.
  thread_local DigestScratch scratch;
  std::uint32_t maxWorkItem = 0;
  std::vector<std::uint32_t>& slotId = scratch.slotId;
  slotId.clear();
  for (const rt::MemAccess& a : accesses) {
    if (isPrivate(a)) continue;
    maxWorkItem = std::max(maxWorkItem, a.workItem);
    if (a.instSlot >= slotId.size()) {
      slotId.resize(std::size_t{a.instSlot} + 1, kNone);
    }
    slotId[a.instSlot] = 0;
  }
  if (slotId.empty()) return digest;  // private accesses only
  std::uint32_t numSlots = 0;
  for (std::uint32_t& id : slotId) {
    if (id != kNone) id = numSlots++;
  }
  // First cell of each work-item's warp, so no access pays a division.
  std::vector<std::uint32_t>& warpCell = scratch.warpCell;
  warpCell.resize(std::size_t{maxWorkItem} + 1);
  for (std::uint32_t wi = 0; wi <= maxWorkItem; ++wi) {
    warpCell[wi] = wi / spec_.warpSize * numSlots;
  }
  const std::size_t numCells = std::size_t{warpCell.back()} + numSlots;
  const auto cellOf = [&](const rt::MemAccess& a) {
    return warpCell[a.workItem] + slotId[a.instSlot];
  };

  // Occurrence of every shared access, from per-(work-item, slot)
  // counters; cellBase[c + 1] collects the number of runs of cell c.
  std::vector<std::uint32_t>& occurrences = scratch.occurrences;
  std::vector<std::uint32_t>& cellBase = scratch.cellBase;
  std::vector<std::uint32_t>& runOf = scratch.runOf;
  occurrences.assign((std::size_t{maxWorkItem} + 1) * numSlots, 0);
  cellBase.assign(numCells + 1, 0);
  runOf.resize(accesses.size());
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    const rt::MemAccess& a = accesses[i];
    if (isPrivate(a)) continue;
    const std::uint32_t occ =
        occurrences[std::size_t{a.workItem} * numSlots + slotId[a.instSlot]]++;
    std::uint32_t& runs = cellBase[cellOf(a) + 1];
    runs = std::max(runs, occ + 1);
    runOf[i] = occ;
  }
  for (std::size_t c = 0; c < numCells; ++c) cellBase[c + 1] += cellBase[c];
  const std::uint32_t numRuns = cellBase[numCells];

  // Counting scatter of the shared accesses' indices into run order;
  // within a run, accesses keep trace order.
  std::vector<std::uint32_t>& runStart = scratch.runStart;
  runStart.assign(std::size_t{numRuns} + 1, 0);
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    if (isPrivate(accesses[i])) continue;
    runOf[i] += cellBase[cellOf(accesses[i])];
    ++runStart[runOf[i] + 1];
  }
  for (std::uint32_t r = 0; r < numRuns; ++r) runStart[r + 1] += runStart[r];
  std::vector<std::uint32_t>& order = scratch.order;
  order.resize(runStart[numRuns]);
  {
    std::vector<std::uint32_t>& next = scratch.next;
    next.assign(runStart.begin(), runStart.end() - 1);
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      if (isPrivate(accesses[i])) continue;
      order[next[runOf[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  // Per run: sort+unique its words or segments in one reused vector.
  std::vector<std::uint64_t>& sorted = scratch.sorted;
  const auto sortUnique = [&sorted] {
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  };
  std::vector<std::uint32_t>& bankWords = scratch.bankWords;
  bankWords.assign(spec_.spmBanks, 0);
  for (std::uint32_t r = 0; r < numRuns; ++r) {
    const std::uint32_t* begin = order.data() + runStart[r];
    const std::uint32_t* end = order.data() + runStart[r + 1];
    sorted.clear();
    // One static instruction has one address space; should a run mix
    // them, its last access decides.
    if (accesses[*(end - 1)].space == ir::AddrSpace::Local) {
      // SPM bank conflicts: distinct words mapping to the same bank
      // serialize; simultaneous reads of the *same* word broadcast.
      // 32-bit banks.
      for (const std::uint32_t* k = begin; k != end; ++k) {
        sorted.push_back(accesses[*k].address / 4);
      }
      sortUnique();
      std::uint32_t degree = 1;
      for (const std::uint64_t word : sorted) {
        degree = std::max(degree, ++bankWords[word % spec_.spmBanks]);
      }
      std::fill(bankWords.begin(), bankWords.end(), 0);
      digest.spmCycles += spec_.spmCycles * static_cast<double>(degree);
      continue;
    }
    // Global coalescing: the distinct 128-byte segments, ascending.
    for (const std::uint32_t* k = begin; k != end; ++k) {
      const rt::MemAccess& a = accesses[*k];
      const std::uint64_t first = a.address / kSegmentBytes;
      const std::uint64_t last =
          (a.address + std::max<std::uint32_t>(a.size, 1) - 1) /
          kSegmentBytes;
      for (std::uint64_t s = first; s <= last; ++s) sorted.push_back(s);
    }
    sortUnique();
    for (const std::uint64_t segment : sorted) {
      digest.segments.push_back(segment * kSegmentBytes);
    }
  }
  return digest;
}

void GpuModel::mergeGroup(const GroupDigest& digest) {
  double memCycles = 0;
  for (std::uint64_t segment : digest.segments) {
    ++transactions_;
    // Every transaction serializes the LSU (replay); misses add exposed
    // DRAM latency on top.
    memCycles += spec_.transactionCycles;
    const bool hit = cache_ != nullptr && cache_->access(segment);
    if (!hit) memCycles += spec_.missCycles;
  }

  const double computeCycles =
      static_cast<double>(digest.counters.total()) * spec_.gpuCpi +
      static_cast<double>(digest.counters.barrier) * spec_.gpuBarrierCycles +
      digest.spmCycles;
  // Compute and memory overlap: the slower pipe bounds the group.
  total_cycles_ += std::max(computeCycles, memCycles);
  group_mem_cycles_ += memCycles;
  spm_cycles_total_ += digest.spmCycles;
  totals_ += digest.counters;
}

void GpuModel::onGroupFinish(std::uint32_t group,
                             const rt::InstCounters& counters) {
  (void)group;
  pending_.counters = counters;
  mergeGroup(digestGroup(0, pending_));
  pending_.clear();
}

}  // namespace grover::perf
