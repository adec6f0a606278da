// Allocator interface shared by the Basic and Optimized (block) software
// memory allocators of Section 3.3.
//
// Allocation requests originate from kernels running on a device, inside a
// work group; the allocator both performs the real reservation (so data
// structures are real) and accounts the *virtual* synchronisation cost of
// the atomic operations involved. Drivers drain that accounting into the
// step timing after each kernel (the cost model deliberately excludes the
// contention part — Section 5.3/Figure 11b). Kernels allocate through
// AllocRun, which tallies those counts privately and flushes them once per
// run, so the accounting costs the real hot path nothing per item.

#ifndef APUJOIN_ALLOC_ALLOCATOR_H_
#define APUJOIN_ALLOC_ALLOCATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "simcl/device.h"

namespace apujoin::alloc {

class Arena;

/// Which allocator implementation to use (Figure 12 compares them).
enum class AllocatorKind {
  kBasic,      ///< one global atomic pointer, latched per request
  kOptimized,  ///< per-work-group blocks; global atomic only on refill
};

inline const char* AllocatorKindName(AllocatorKind k) {
  return k == AllocatorKind::kBasic ? "Basic" : "Ours";
}

/// Synchronisation-op counts accumulated by an allocator since the last
/// TakeCounts() call, per device.
struct AllocCounts {
  uint64_t global_atomics[simcl::kNumDevices] = {0, 0};
  uint64_t local_atomics[simcl::kNumDevices] = {0, 0};
  uint64_t requests[simcl::kNumDevices] = {0, 0};
  uint64_t failed = 0;  ///< exhausted-arena reservations

  AllocCounts& operator+=(const AllocCounts& o) {
    for (int d = 0; d < simcl::kNumDevices; ++d) {
      global_atomics[d] += o.global_atomics[d];
      local_atomics[d] += o.local_atomics[d];
      requests[d] += o.requests[d];
    }
    failed += o.failed;
    return *this;
  }
};

/// One run's op tallies on its device (see AllocRun), kept in plain
/// integers and flushed into the shared counters once per run.
struct RunTally {
  uint64_t global_atomics = 0;
  uint64_t local_atomics = 0;
  uint64_t requests = 0;
  uint64_t failed = 0;
};

/// Thread-safe AllocCounts accumulator. Kernels may allocate concurrently
/// under the thread-pool execution backend; they tally into a RunTally and
/// Add it here once per run, and the drain materializes a plain AllocCounts.
struct AtomicAllocCounts {
  std::atomic<uint64_t> global_atomics[simcl::kNumDevices] = {};
  std::atomic<uint64_t> local_atomics[simcl::kNumDevices] = {};
  std::atomic<uint64_t> requests[simcl::kNumDevices] = {};
  std::atomic<uint64_t> failed{0};

  /// Flushes one run's tallies on device `d`. All counter traffic is
  /// relaxed: independent statistics tallies whose only requirement is RMW
  /// atomicity (the exchange-to-zero drain must not lose concurrent
  /// flushes); no other memory is published through them.
  void Add(int d, const RunTally& t) {
    const auto add = [](std::atomic<uint64_t>& counter, uint64_t v) {
      // relaxed: see above.
      if (v != 0) counter.fetch_add(v, std::memory_order_relaxed);
    };
    add(global_atomics[d], t.global_atomics);
    add(local_atomics[d], t.local_atomics);
    add(requests[d], t.requests);
    add(failed, t.failed);
  }

  /// Returns the counts accumulated since the last Take and resets them.
  AllocCounts Take() {
    AllocCounts out;
    for (int d = 0; d < simcl::kNumDevices; ++d) {
      // relaxed exchanges: see Add.
      out.global_atomics[d] =
          global_atomics[d].exchange(0, std::memory_order_relaxed);
      out.local_atomics[d] =
          local_atomics[d].exchange(0, std::memory_order_relaxed);
      out.requests[d] = requests[d].exchange(0, std::memory_order_relaxed);
    }
    // relaxed exchange: see Add.
    out.failed = failed.exchange(0, std::memory_order_relaxed);
    return out;
  }
};

class AllocRun;

/// Abstract index allocator over an Arena. Every allocation goes through
/// an AllocRun; Allocate() is the one-call run.
class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Reserves `count` consecutive elements for a kernel running on `dev`
  /// in work group `workgroup`. Returns first index or -1 when exhausted.
  int64_t Allocate(uint32_t count, simcl::DeviceId dev, uint32_t workgroup);

  /// Returns op counts since the last call and resets them.
  AllocCounts TakeCounts() { return counts_.Take(); }

  /// Forgets cached blocks and counts (arena reset is the owner's job).
  virtual void Reset() { counts_.Take(); }

  virtual AllocatorKind kind() const = 0;

 protected:
  friend class AllocRun;

  /// Serves a request the run's attached block cannot (or, for the Basic
  /// allocator, every request): one global atomic either way.
  virtual int64_t Refill(AllocRun& run, uint32_t count) = 0;
  /// Writes an attached block cache back and releases it.
  virtual void Detach(AllocRun& /*run*/) {}

 private:
  AtomicAllocCounts counts_;
};

/// A morsel-private allocation run (Section 3.3): the work group's block
/// pointer held in "local memory". A kernel opens one per (morsel, device)
/// and moves it across work groups with SetWorkgroup; each allocation then
/// returns exactly the index per-call Allocate(count, dev, workgroup) would,
/// and tallies its op counts in the run. Under the Block allocator the run
/// attaches the work group's cache slot on its first allocation — locking
/// the slot and copying its local pointer into the run — bumps that copy
/// per call, and writes it back and unlocks when it leaves the work group.
/// Closing the run (or destroying it) flushes the tallies once.
class AllocRun {
 public:
  AllocRun(Allocator* alloc, simcl::DeviceId dev, uint32_t workgroup = 0)
      : alloc_(alloc), dev_(dev), workgroup_(workgroup) {}
  AllocRun(const AllocRun&) = delete;
  AllocRun& operator=(const AllocRun&) = delete;
  ~AllocRun() { Close(); }

  /// Moves the run to `workgroup`, detaching the previous one's block.
  void SetWorkgroup(uint32_t workgroup) {
    if (workgroup == workgroup_) return;
    Detach();
    workgroup_ = workgroup;
  }

  /// Reserves `count` consecutive elements; the first index, or -1 when
  /// the arena is exhausted.
  int64_t Allocate(uint32_t count = 1) {
    ++tally_.requests;
    if (cur_ + count <= end_) {  // local-pointer bump within the block
      ++tally_.local_atomics;
      const int64_t idx = cur_;
      cur_ += count;
      return idx;
    }
    return alloc_->Refill(*this, count);
  }

  /// Tallies since the last Close.
  const RunTally& tally() const { return tally_; }

  /// Detaches the block and flushes the tallies; the run stays usable.
  void Close() {
    Detach();
    alloc_->counts_.Add(static_cast<int>(dev_), tally_);
    tally_ = RunTally{};
  }

 private:
  friend class BasicAllocator;
  friend class BlockAllocator;

  void Detach() {
    if (slot_ >= 0) alloc_->Detach(*this);
  }

  Allocator* alloc_;
  simcl::DeviceId dev_;
  uint32_t workgroup_;
  int64_t slot_ = -1;  // attached block-cache slot, or -1
  int64_t cur_ = 0;    // the attached block's local pointer ...
  int64_t end_ = -1;   // ... and end; -1 while detached, so a call refills
  RunTally tally_;
};

/// The allocator of `kind` over `arena` (`block_bytes` sizes the optimized
/// allocator's blocks; the Basic allocator ignores it).
std::unique_ptr<Allocator> MakeAllocator(Arena* arena, AllocatorKind kind,
                                         uint32_t block_bytes);

inline int64_t Allocator::Allocate(uint32_t count, simcl::DeviceId dev,
                                   uint32_t workgroup) {
  AllocRun run(this, dev, workgroup);
  return run.Allocate(count);
}

}  // namespace apujoin::alloc

#endif  // APUJOIN_ALLOC_ALLOCATOR_H_
