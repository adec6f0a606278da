// The paper's hash table (Section 3.1):
//
//   bucket header = { tuple count, pointer to key list }
//   key list      = unique keys with this hash value, each pointing to a
//   rid list      = record IDs of all build tuples with that key.
//
// Layout is OpenCL-style: no raw pointers, only int32 indices into
// pre-allocated node pools (an in-kernel malloc does not exist — nodes come
// from the software allocators of Section 3.3). Node pools are shared
// between tables so PHJ's thousands of per-partition tables carve from the
// same arenas. All mutation goes through atomics, so the shared-table mode
// is safe under concurrent build and the latch accounting mirrors what the
// real kernel would pay.
//
// `shared` vs `separate` tables (Section 3.3 tradeoff, Figure 10): a shared
// table is built by both devices and enjoys the coupled architecture's
// shared L2; separate tables avoid cross-device latch contention but must
// be merged after the build (a dominant overhead on the discrete
// architecture, Figure 3).

#ifndef APUJOIN_JOIN_HASH_TABLE_H_
#define APUJOIN_JOIN_HASH_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/arena.h"
#include "simcl/cache_sim.h"
#include "util/status.h"

namespace apujoin::join {

inline constexpr int32_t kNil = -1;

/// Shared key/rid node storage carved from pre-allocated arenas. One pool
/// set serves any number of HashTable instances (SHJ: one; PHJ: one per
/// partition).
class NodePools {
 public:
  /// `wide_keys` sizes the secondary key-word arena (`key_value_hi`) for
  /// two-word canonical keys (U64 / composite / dict-string); narrow pools
  /// do not allocate it.
  NodePools(uint64_t key_capacity, uint64_t rid_capacity,
            alloc::AllocatorKind kind, uint32_t block_bytes,
            bool wide_keys = false);

  /// The key-node and rid-node allocators; kernels allocate through a
  /// NodeRun over one of them.
  alloc::Allocator* key_allocator() { return key_alloc_.get(); }
  alloc::Allocator* rid_allocator() { return rid_alloc_.get(); }

  /// Drains allocator op counts (key + rid allocators combined).
  alloc::AllocCounts TakeCounts();

  uint64_t key_capacity() const { return key_arena_.capacity(); }
  uint64_t rid_capacity() const { return rid_arena_.capacity(); }
  uint64_t keys_used() const { return key_arena_.used(); }
  uint64_t rids_used() const { return rid_arena_.used(); }
  bool wide_keys() const { return !key_value_hi.empty(); }

  // Flat node storage (public: the HashTable is the only intended user,
  // and kernels index these arrays directly like OpenCL global memory).
  std::vector<int32_t> key_value;
  std::vector<int32_t> key_value_hi;  // secondary key word; empty if narrow
  std::vector<std::atomic<int32_t>> key_next;
  std::vector<std::atomic<int32_t>> rid_head;  // per key node
  std::vector<int32_t> rid_value;
  std::vector<int32_t> rid_next;

 private:
  alloc::Arena key_arena_;
  alloc::Arena rid_arena_;
  std::unique_ptr<alloc::Allocator> key_alloc_;
  std::unique_ptr<alloc::Allocator> rid_alloc_;
};

/// A run of node insertions by one (morsel, device): b3's key nodes or
/// b4's rid nodes. It allocates through an AllocRun over the pool's key or
/// rid allocator and counts the nodes it publishes into a table, flushing
/// that count into the table's statistics counter when the run moves to
/// another table (PHJ's partitions) or closes — once per run, not per item.
class NodeRun {
 public:
  NodeRun(alloc::Allocator* nodes, simcl::DeviceId dev, uint32_t workgroup = 0)
      : nodes_(nodes, dev, workgroup) {}
  NodeRun(const NodeRun&) = delete;
  NodeRun& operator=(const NodeRun&) = delete;
  ~NodeRun() { FlushInserts(); }

  void SetWorkgroup(uint32_t workgroup) { nodes_.SetWorkgroup(workgroup); }

  /// One node index, or kNil when the arena is exhausted.
  int32_t AllocNode() { return static_cast<int32_t>(nodes_.Allocate()); }

  /// Counts one node published into the table whose counter is `counter`.
  void CountInsert(std::atomic<uint64_t>* counter) {
    if (counter != counter_) {
      FlushInserts();
      counter_ = counter;
    }
    ++pending_;
  }

 private:
  void FlushInserts() {
    if (pending_ == 0) return;
    // relaxed: statistics counter, read after the span barrier.
    counter_->fetch_add(pending_, std::memory_order_relaxed);
    pending_ = 0;
  }

  alloc::AllocRun nodes_;
  std::atomic<uint64_t>* counter_ = nullptr;
  uint64_t pending_ = 0;
};

/// Chained hash table with bucket headers, key lists and rid lists.
///
/// HashTable and OpenHashTable share one method surface (FindOrAddKey[Wide],
/// FindKey[Wide], InsertRid, BumpCount, VisitHeader, ForEachRid,
/// PrefetchBucket, MergeFrom) with identical signatures, so the step kernels
/// in hash_join_kernels.h are written once as templates over the table
/// class. Parameters one layout has no use for are accepted and ignored.
class HashTable {
 public:
  /// VisitHeader's result for a bucket holding no keys (an empty key list).
  static constexpr int32_t kEmptyHeader = kNil;

  /// `num_buckets` must be a nonzero power of two (BucketOf masks with
  /// num_buckets-1); throws std::invalid_argument otherwise. Wide key words
  /// live in the NodePools key arena, so `wide_keys` is ignored here (it
  /// mirrors the OpenHashTable constructor).
  HashTable(uint32_t num_buckets, NodePools* pools, bool wide_keys = false);

  uint32_t num_buckets() const { return num_buckets_; }
  uint32_t BucketOf(uint32_t hash) const { return hash & (num_buckets_ - 1); }

  /// Step b2/p2: visit the bucket header. Returns the key-list head;
  /// `count` (optional) receives the bucket's tuple count — the probe-side
  /// workload estimate used by divergence grouping.
  int32_t VisitHeader(uint32_t bucket, int32_t* count = nullptr) const;

  /// Step b3: find key in the bucket's key list, appending a new key node
  /// (allocated through `keys`, a run over the pools' key allocator) if
  /// absent. Returns the key node index (or kNil if the arena is
  /// exhausted). `*work` is incremented by the number of list nodes
  /// traversed (>= 1) — the step's data-dependent work units.
  int32_t FindOrAddKey(uint32_t bucket, int32_t key, NodeRun& keys,
                       uint32_t* work);

  /// Wide-key b3: like FindOrAddKey but matching both canonical key words.
  /// Comparison order mirrors the probe contract: lo first (the hash word
  /// for dict-strings), hi second (the dictionary code). Requires pools
  /// constructed with wide_keys = true.
  int32_t FindOrAddKeyWide(uint32_t bucket, int32_t key_lo, int32_t key_hi,
                           NodeRun& keys, uint32_t* work);

  /// Step b4: insert `rid` into the key node's rid list, allocating through
  /// `rids` (a run over the pools' rid allocator). Returns false if the rid
  /// arena is exhausted.
  bool InsertRid(int32_t key_node, int32_t rid, NodeRun& rids);

  // One-call forms of the three above: a run of one insertion by (`dev`,
  // `workgroup`).
  int32_t FindOrAddKey(uint32_t bucket, int32_t key, simcl::DeviceId dev,
                       uint32_t workgroup, uint32_t* work) {
    NodeRun keys(pools_->key_allocator(), dev, workgroup);
    return FindOrAddKey(bucket, key, keys, work);
  }
  int32_t FindOrAddKeyWide(uint32_t bucket, int32_t key_lo, int32_t key_hi,
                           simcl::DeviceId dev, uint32_t workgroup,
                           uint32_t* work) {
    NodeRun keys(pools_->key_allocator(), dev, workgroup);
    return FindOrAddKeyWide(bucket, key_lo, key_hi, keys, work);
  }
  bool InsertRid(int32_t key_node, int32_t rid, simcl::DeviceId dev,
                 uint32_t workgroup) {
    NodeRun rids(pools_->rid_allocator(), dev, workgroup);
    return InsertRid(key_node, rid, rids);
  }

  /// Increments the bucket's tuple count (done by the b4 step, which knows
  /// the tuple's bucket from the b2 intermediate state).
  void BumpCount(uint32_t bucket) {
    count_[bucket].fetch_add(1, std::memory_order_relaxed);
  }

  /// Step p3: find key without inserting. Returns key node or kNil;
  /// `*work` += nodes traversed (>= 1). The chained walk is scalar, so
  /// `use_avx2` is ignored.
  int32_t FindKey(uint32_t bucket, int32_t key, uint32_t* work,
                  bool use_avx2 = false) const;

  /// Wide-key p3: find a two-word canonical key without inserting.
  int32_t FindKeyWide(uint32_t bucket, int32_t key_lo, int32_t key_hi,
                      uint32_t* work, bool use_avx2 = false) const;

  /// Prefetches the bucket's header line (the first hop of every header
  /// visit and key-list walk) — issued by the batch kernels
  /// `prefetch_dist` items ahead of the access.
  void PrefetchBucket(uint32_t bucket) const {
    __builtin_prefetch(&head_[bucket], 0, 1);
  }

  /// Step p4: walk the rid list of `key_node`, calling `emit(build_rid)`
  /// for each match. Returns the number of matches.
  template <typename EmitFn>
  uint32_t ForEachRid(int32_t key_node, EmitFn&& emit) const {
    uint32_t n = 0;
    for (int32_t r = pools_->rid_head[key_node].load(std::memory_order_relaxed);
         r != kNil; r = pools_->rid_next[r]) {
      emit(pools_->rid_value[r]);
      ++n;
    }
    return n;
  }

  /// Merges all entries of `other` into this table (the post-build merge
  /// required by separate tables). Equal-sized tables keep each key's
  /// bucket; otherwise the bucket is recomputed from the key's hash
  /// pre-shifted by `shift` (0 for SHJ, the radix bits for PHJ partitions).
  /// Returns {keys moved, rids moved}.
  std::pair<uint64_t, uint64_t> MergeFrom(const HashTable& other,
                                          uint32_t shift, simcl::DeviceId dev);

  /// Key/rid nodes inserted through this table.
  uint64_t keys_inserted() const {
    return keys_inserted_.load(std::memory_order_relaxed);
  }
  uint64_t rids_inserted() const {
    return rids_inserted_.load(std::memory_order_relaxed);
  }

  /// Bytes of the table's working set (headers + inserted nodes) — feeds
  /// the memory model's resident-fraction estimate.
  double WorkingSetBytes() const;

  /// Enables cache-line tracing into `cache` (nullptr disables).
  void set_cache(simcl::CacheSim* cache) { cache_ = cache; }

  /// Sums the per-bucket counts — test/debug invariant helper.
  uint64_t TotalCount() const;

 private:
  void Touch(const void* p) const {
    if (cache_ != nullptr) cache_->Access(reinterpret_cast<uint64_t>(p));
  }

  uint32_t num_buckets_;
  NodePools* pools_;
  std::vector<std::atomic<int32_t>> head_;
  std::vector<std::atomic<int32_t>> count_;
  std::atomic<uint64_t> keys_inserted_{0};
  std::atomic<uint64_t> rids_inserted_{0};
  simcl::CacheSim* cache_ = nullptr;
};

/// Returns the smallest power of two >= n (min 1, capped at 2^30).
uint32_t NextPow2(uint64_t n);

/// Extra arena capacity needed on top of the exact node count when the
/// optimized allocator is in play: every (device, work group) pair may
/// strand one partially-used block.
inline uint64_t PoolSlack(uint64_t items, uint32_t block_bytes,
                          uint32_t elem_bytes) {
  const uint64_t wgs = std::min<uint64_t>(1024, items / 256 + 2);
  const uint64_t block_elems =
      std::max<uint64_t>(1, block_bytes / std::max<uint32_t>(1, elem_bytes));
  return 2 * wgs * block_elems + 64;
}

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_HASH_TABLE_H_
