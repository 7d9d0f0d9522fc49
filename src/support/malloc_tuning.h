// Process-wide malloc settings for the compile service.
//
// glibc's malloc raises its mmap threshold to the size of every mapped
// block it frees (up to 32 MiB) and its trim threshold to twice that. Once
// a multi-MiB estimator buffer (a CpuModel last-level cache, a group's
// trace or digest) has been freed, later ones of that size come from the
// arena of whichever thread allocates them, and each arena may then keep
// up to ~10 MiB of freed memory resident. Which pool thread runs which
// work-group varies from run to run, so the process's resident set did
// too (DESIGN.md §8 'Memory').
#pragma once

namespace grover::support {

/// Pin glibc's mmap threshold at 1 MiB, which also pins the trim
/// threshold at its 128 KiB default: blocks of 1 MiB and more are always
/// mapped and go back to the OS when freed, and arena tops are trimmed.
/// Runs once per process; a no-op on other C libraries.
void pinMallocThresholds();

}  // namespace grover::support
