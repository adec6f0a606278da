#include "alloc/basic_allocator.h"

namespace apujoin::alloc {

int64_t BasicAllocator::Refill(AllocRun& run, uint32_t count) {
  // The latched pointer bump.
  ++run.tally_.global_atomics;
  const int64_t idx = arena_->Reserve(count);
  if (idx < 0) ++run.tally_.failed;
  return idx;
}

}  // namespace apujoin::alloc
