#include "alloc/block_allocator.h"

#include <algorithm>

namespace apujoin::alloc {

BlockAllocator::BlockAllocator(Arena* arena, uint32_t block_bytes)
    : arena_(arena), block_bytes_(block_bytes) {
  block_elems_ = std::max<uint32_t>(1, block_bytes_ / arena_->elem_bytes());
  cache_ = std::vector<Cache>(simcl::kNumDevices * kWorkgroupSlots);
}

// The slot lock is taken here and released in Detach, a run's lifetime
// apart, which clang's analysis cannot follow across functions; both
// bodies opt out, and the protocol is covered by the TSan preset.
NO_THREAD_SAFETY_ANALYSIS int64_t BlockAllocator::Refill(AllocRun& run,
                                                          uint32_t count) {
  if (run.slot_ < 0) {
    // First request of the run in this work group: attach the slot and
    // copy its local pointer into the run.
    run.slot_ = static_cast<int64_t>(run.dev_) * kWorkgroupSlots +
                run.workgroup_ % kWorkgroupSlots;
    Cache& c = cache_[static_cast<size_t>(run.slot_)];
    c.lock.Lock();
    run.cur_ = c.cur;
    run.end_ = c.end;
    if (run.cur_ + count <= run.end_) {
      // Local-pointer bump within the cached block (local-memory atomic).
      ++run.tally_.local_atomics;
      const int64_t idx = run.cur_;
      run.cur_ += count;
      return idx;
    }
  }
  // Refill: work item 0 advances the global pointer by one block (or by the
  // request size for oversized requests). One global atomic either way.
  ++run.tally_.global_atomics;
  const uint32_t grab = std::max(block_elems_, count);
  const int64_t start = arena_->Reserve(grab);
  if (start < 0) {
    ++run.tally_.failed;
    return -1;
  }
  run.cur_ = start + count;
  run.end_ = start + grab;
  ++run.tally_.local_atomics;
  return start;
}

NO_THREAD_SAFETY_ANALYSIS void BlockAllocator::Detach(AllocRun& run) {
  Cache& c = cache_[static_cast<size_t>(run.slot_)];
  c.cur = run.cur_;
  c.end = run.end_;
  c.lock.Unlock();
  run.slot_ = -1;
  run.cur_ = 0;
  run.end_ = -1;
}

void BlockAllocator::Reset() {
  Allocator::Reset();
  for (Cache& c : cache_) {
    annotated::SpinLockGuard guard(c.lock);
    c.cur = 0;
    c.end = 0;
  }
}

}  // namespace apujoin::alloc
