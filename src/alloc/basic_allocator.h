// Basic software memory allocator (Section 3.3): a single pointer marking
// the start of free memory in a pre-allocated array, advanced under an
// atomic-add latch on every request. Suffers latch contention under massive
// GPU thread parallelism — the motivation for the optimized allocator.

#ifndef APUJOIN_ALLOC_BASIC_ALLOCATOR_H_
#define APUJOIN_ALLOC_BASIC_ALLOCATOR_H_

#include "alloc/allocator.h"
#include "alloc/arena.h"

namespace apujoin::alloc {

/// One-global-pointer allocator: every request is one global atomic, run or
/// no run (a run never holds a block, so each call reaches Refill).
class BasicAllocator : public Allocator {
 public:
  explicit BasicAllocator(Arena* arena) : arena_(arena) {}

  AllocatorKind kind() const override { return AllocatorKind::kBasic; }

 protected:
  int64_t Refill(AllocRun& run, uint32_t count) override;

 private:
  Arena* arena_;
};

}  // namespace apujoin::alloc

#endif  // APUJOIN_ALLOC_BASIC_ALLOCATOR_H_
