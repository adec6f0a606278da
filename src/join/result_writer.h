// Join-result output buffer (the third dynamic-allocation site of Section
// 3.3). Result pairs <build rid, probe rid> are appended through the
// software allocator, so output traffic participates in the latch/block-size
// experiments exactly like key/rid node allocation.

#ifndef APUJOIN_JOIN_RESULT_WRITER_H_
#define APUJOIN_JOIN_RESULT_WRITER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/arena.h"

namespace apujoin::join {

/// Pre-allocated result buffer with allocator-mediated appends.
class ResultWriter {
 public:
  ResultWriter(uint64_t capacity, alloc::AllocatorKind kind,
               uint32_t block_bytes);

  /// p4's morsel-private output run: the emits of one (morsel, device),
  /// moved across work groups with SetWorkgroup. Slots come from one
  /// AllocRun, so an emit is a local-pointer bump plus the pair stores;
  /// count() and dropped() are derived from the run's tallies (requests
  /// minus failed, and failed) and flushed once when the run closes.
  class Run {
   public:
    Run(ResultWriter* out, simcl::DeviceId dev, uint32_t workgroup = 0)
        : out_(out), slots_(out->alloc_.get(), dev, workgroup) {}
    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;
    /// Flushes the run's emitted/dropped counts and allocator tallies.
    ~Run();

    void SetWorkgroup(uint32_t workgroup) { slots_.SetWorkgroup(workgroup); }

    /// Appends one result pair; false when the buffer is exhausted.
    bool Emit(int32_t build_rid, int32_t probe_rid) {
      const int64_t idx = slots_.Allocate();
      if (idx < 0) return false;
      out_->build_rids_[idx] = build_rid;
      out_->probe_rids_[idx] = probe_rid;
      return true;
    }

    /// Keyed append (see ResultWriter::Emit).
    bool Emit(int32_t key, int32_t build_rid, int32_t probe_rid) {
      const int64_t idx = slots_.Allocate();
      if (idx < 0) return false;
      out_->keys_[idx] = key;
      out_->build_rids_[idx] = build_rid;
      out_->probe_rids_[idx] = probe_rid;
      return true;
    }

   private:
    ResultWriter* out_;
    alloc::AllocRun slots_;
  };

  /// Appends one result pair (a one-emit run); false when the buffer is
  /// exhausted (the failed emit is counted in dropped()).
  bool Emit(int32_t build_rid, int32_t probe_rid, simcl::DeviceId dev,
            uint32_t workgroup) {
    return Run(this, dev, workgroup).Emit(build_rid, probe_rid);
  }

  /// Keyed append: also stores the join key alongside the pair, for
  /// downstream operators (group-by) that aggregate the join output.
  /// Only valid after CaptureKeys().
  bool Emit(int32_t key, int32_t build_rid, int32_t probe_rid,
            simcl::DeviceId dev, uint32_t workgroup) {
    return Run(this, dev, workgroup).Emit(key, build_rid, probe_rid);
  }

  /// Allocates the key column so keyed Emit calls may store the join key.
  /// Must be called before the first Emit (typically right after
  /// construction, when a plan has a consumer downstream of the join).
  void CaptureKeys();
  bool captures_keys() const { return !keys_.empty(); }

  /// Number of result pairs emitted (block over-reservation excluded).
  uint64_t count() const { return emitted_.load(std::memory_order_relaxed); }
  /// Number of result pairs that could not be emitted because the buffer
  /// was exhausted. Non-zero means the collected result is truncated.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  uint64_t capacity() const { return arena_.capacity(); }

  /// Gathers the emitted pairs (slot order is not deterministic across
  /// allocator kinds; unclaimed block-remainder slots are skipped).
  std::vector<std::pair<int32_t, int32_t>> CollectPairs() const;

  // Raw column views for downstream operator kernels (group-by). Slots in
  // [0, used_slots()) with build_rid_data()[i] < 0 are unclaimed block
  // remainders and must be skipped.
  uint64_t used_slots() const { return arena_.used(); }
  const int32_t* build_rid_data() const { return build_rids_.data(); }
  const int32_t* probe_rid_data() const { return probe_rids_.data(); }
  /// Key column (nullptr unless CaptureKeys() was called).
  const int32_t* key_data() const {
    return keys_.empty() ? nullptr : keys_.data();
  }

  alloc::AllocCounts TakeCounts() { return alloc_->TakeCounts(); }

  void Reset();

 private:
  alloc::Arena arena_;
  std::unique_ptr<alloc::Allocator> alloc_;
  std::vector<int32_t> build_rids_;  // -1 marks an unwritten slot
  std::vector<int32_t> probe_rids_;
  std::vector<int32_t> keys_;  // sized only by CaptureKeys()
  std::atomic<uint64_t> emitted_{0};
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_RESULT_WRITER_H_
