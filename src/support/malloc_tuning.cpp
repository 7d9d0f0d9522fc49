#include "support/malloc_tuning.h"

#include <mutex>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace grover::support {

void pinMallocThresholds() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] { mallopt(M_MMAP_THRESHOLD, 1 << 20); });
#endif
}

}  // namespace grover::support
