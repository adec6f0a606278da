// Optimized software memory allocator (Section 3.3).
//
// Allocation happens at block granularity: work item 0 of a work group
// advances the *global* pointer by one block; threads inside the group then
// bump a *local* pointer (held in local memory) within the block. Global
// atomic traffic therefore drops by a factor of block_elems, which is the
// entire effect Figure 11 sweeps (block size 8 B .. 32 KB) and Figure 12
// compares against the Basic allocator.

#ifndef APUJOIN_ALLOC_BLOCK_ALLOCATOR_H_
#define APUJOIN_ALLOC_BLOCK_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/arena.h"
#include "util/annotated_mutex.h"
#include "util/thread_annotations.h"

namespace apujoin::alloc {

/// Per-work-group block caching allocator.
class BlockAllocator : public Allocator {
 public:
  /// `block_bytes` is the paper's tuning knob (default 2 KB — the value the
  /// paper converges to). Blocks smaller than one element degenerate to the
  /// basic allocator's behaviour.
  BlockAllocator(Arena* arena, uint32_t block_bytes = 2048);

  void Reset() override;
  AllocatorKind kind() const override { return AllocatorKind::kOptimized; }

  uint32_t block_bytes() const { return block_bytes_; }
  uint32_t block_elems() const { return block_elems_; }

  /// Number of distinct work-group cache slots per device.
  static constexpr uint32_t kWorkgroupSlots = 1024;

 protected:
  /// Attaches the run's work-group slot on first use, then refills.
  int64_t Refill(AllocRun& run, uint32_t count) override;
  void Detach(AllocRun& run) override;

 private:
  /// One (device, work group) block cache. Distinct work groups may share a
  /// slot (workgroup ids wrap at kWorkgroupSlots), so under the thread-pool
  /// backend two workers can hit one slot concurrently; the spinlock is the
  /// work group's "local memory" serialisation made explicit. An AllocRun
  /// holds the lock from its first allocation in the work group until it
  /// leaves it, with cur/end copied into the run meanwhile; the slot is
  /// therefore touched once per run, not once per allocation, and needs no
  /// cache-line padding.
  struct Cache {
    annotated::SpinLock lock;
    int64_t cur GUARDED_BY(lock) = 0;
    int64_t end GUARDED_BY(lock) = 0;  // cur == end => empty
  };

  Arena* arena_;
  uint32_t block_bytes_;
  uint32_t block_elems_;
  std::vector<Cache> cache_;  // kNumDevices * kWorkgroupSlots
};

}  // namespace apujoin::alloc

#endif  // APUJOIN_ALLOC_BLOCK_ALLOCATOR_H_
