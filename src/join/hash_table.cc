#include "join/hash_table.h"

#include <stdexcept>
#include <string>

#include "util/murmur_hash.h"

namespace apujoin::join {

using apujoin::MurmurHash2x4;

uint32_t NextPow2(uint64_t n) {
  uint32_t p = 1;
  while (p < n && p < (1u << 30)) p <<= 1;
  return p;
}

NodePools::NodePools(uint64_t key_capacity, uint64_t rid_capacity,
                     alloc::AllocatorKind kind, uint32_t block_bytes,
                     bool wide_keys)
    : key_value(key_capacity),
      key_value_hi(wide_keys ? key_capacity : 0),
      key_next(key_capacity),
      rid_head(key_capacity),
      rid_value(rid_capacity),
      rid_next(rid_capacity),
      key_arena_(key_capacity, /*elem_bytes=*/wide_keys ? 16u : 12u),
      rid_arena_(rid_capacity, /*elem_bytes=*/8) {
  key_alloc_ = alloc::MakeAllocator(&key_arena_, kind, block_bytes);
  rid_alloc_ = alloc::MakeAllocator(&rid_arena_, kind, block_bytes);
}

alloc::AllocCounts NodePools::TakeCounts() {
  alloc::AllocCounts c = key_alloc_->TakeCounts();
  c += rid_alloc_->TakeCounts();
  return c;
}

HashTable::HashTable(uint32_t num_buckets, NodePools* pools,
                     bool /*wide_keys*/)
    : num_buckets_(num_buckets),
      pools_(pools),
      head_(num_buckets),
      count_(num_buckets) {
  if (num_buckets == 0 || (num_buckets & (num_buckets - 1)) != 0) {
    // BucketOf masks with num_buckets-1, so anything else silently drops
    // tuples into wrong buckets (or divides by zero conceptually).
    throw std::invalid_argument(
        "HashTable: num_buckets must be a nonzero power of two, got " +
        std::to_string(num_buckets));
  }
  // relaxed: single-threaded construction; the table is published to
  // workers by the span launch, not by these stores.
  for (auto& h : head_) h.store(kNil, std::memory_order_relaxed);
  for (auto& c : count_) c.store(0, std::memory_order_relaxed);
}

int32_t HashTable::VisitHeader(uint32_t bucket, int32_t* count) const {
  Touch(&head_[bucket]);
  if (count != nullptr) {
    *count = count_[bucket].load(std::memory_order_relaxed);
  }
  return head_[bucket].load(std::memory_order_acquire);
}

int32_t HashTable::FindOrAddKey(uint32_t bucket, int32_t key, NodeRun& keys,
                                uint32_t* work) {
  Touch(&head_[bucket]);  // the list head load below
  uint32_t traversed = 1;
  while (true) {
    int32_t node = head_[bucket].load(std::memory_order_acquire);
    const int32_t first = node;
    while (node != kNil) {
      Touch(&pools_->key_value[node]);
      if (pools_->key_value[node] == key) {
        *work += traversed;
        return node;
      }
      ++traversed;
      node = pools_->key_next[node].load(std::memory_order_acquire);
    }
    // Not found: allocate a node and push it at the head.
    const int32_t ni = keys.AllocNode();
    if (ni == kNil) {
      *work += traversed;
      return kNil;
    }
    pools_->key_value[ni] = key;
    pools_->rid_head[ni].store(kNil, std::memory_order_relaxed);
    pools_->key_next[ni].store(first, std::memory_order_relaxed);
    Touch(&pools_->key_value[ni]);
    int32_t expected = first;
    // acq_rel: release publishes the new node's fields (key_value,
    // key_next, rid_head above) to any thread that acquire-loads the
    // head; acquire orders our re-scan when we lose the race.
    if (head_[bucket].compare_exchange_strong(expected, ni,
                                              std::memory_order_acq_rel)) {
      keys.CountInsert(&keys_inserted_);
      *work += traversed;
      return ni;
    }
    // Lost the race: another thread pushed a node (possibly our key).
    // Re-scan; the allocated node leaks into the arena — exactly what the
    // lock-free OpenCL kernel does.
  }
}

int32_t HashTable::FindOrAddKeyWide(uint32_t bucket, int32_t key_lo,
                                    int32_t key_hi, NodeRun& keys,
                                    uint32_t* work) {
  Touch(&head_[bucket]);  // the list head load below
  uint32_t traversed = 1;
  while (true) {
    int32_t node = head_[bucket].load(std::memory_order_acquire);
    const int32_t first = node;
    while (node != kNil) {
      Touch(&pools_->key_value[node]);
      // lo first (the 64-bit-hash word for dict-strings), hi second (the
      // dictionary code) — the hash-first/compare-second probe contract.
      if (pools_->key_value[node] == key_lo &&
          pools_->key_value_hi[node] == key_hi) {
        *work += traversed;
        return node;
      }
      ++traversed;
      node = pools_->key_next[node].load(std::memory_order_acquire);
    }
    // Not found: allocate a node and push it at the head.
    const int32_t ni = keys.AllocNode();
    if (ni == kNil) {
      *work += traversed;
      return kNil;
    }
    pools_->key_value[ni] = key_lo;
    pools_->key_value_hi[ni] = key_hi;
    // relaxed: both stores happen-before the publishing CAS below, whose
    // release side makes them visible to acquire-readers of the head.
    pools_->rid_head[ni].store(kNil, std::memory_order_relaxed);
    pools_->key_next[ni].store(first, std::memory_order_relaxed);
    Touch(&pools_->key_value[ni]);
    int32_t expected = first;
    // acq_rel: same publication contract as the narrow FindOrAddKey.
    if (head_[bucket].compare_exchange_strong(expected, ni,
                                              std::memory_order_acq_rel)) {
      keys.CountInsert(&keys_inserted_);
      *work += traversed;
      return ni;
    }
    // Lost the race: re-scan; the allocated node leaks into the arena.
  }
}

bool HashTable::InsertRid(int32_t key_node, int32_t rid, NodeRun& rids) {
  const int32_t ni = rids.AllocNode();
  if (ni == kNil) return false;
  pools_->rid_value[ni] = rid;
  Touch(&pools_->rid_value[ni]);
  // Push ni at the rid-list head. The initial load may be relaxed (a
  // stale head just fails the CAS); the CAS is acq_rel — release
  // publishes rid_value/rid_next to acquire-readers of the head,
  // acquire refreshes `old` for the retry.
  int32_t old = pools_->rid_head[key_node].load(std::memory_order_relaxed);
  do {
    pools_->rid_next[ni] = old;
  } while (!pools_->rid_head[key_node].compare_exchange_weak(
      old, ni, std::memory_order_acq_rel));
  rids.CountInsert(&rids_inserted_);
  return true;
}

int32_t HashTable::FindKey(uint32_t bucket, int32_t key, uint32_t* work,
                           bool /*use_avx2*/) const {
  Touch(&head_[bucket]);  // the list head load below
  uint32_t traversed = 1;
  // acquire (head and next): pairs with the inserter's acq_rel CAS so
  // every node reached through the chain is fully initialised.
  int32_t node = head_[bucket].load(std::memory_order_acquire);
  while (node != kNil) {
    Touch(&pools_->key_value[node]);
    if (pools_->key_value[node] == key) break;
    ++traversed;
    // acquire: same chain-publication pairing as the head load.
    node = pools_->key_next[node].load(std::memory_order_acquire);
  }
  *work += traversed;
  return node;
}

int32_t HashTable::FindKeyWide(uint32_t bucket, int32_t key_lo, int32_t key_hi,
                               uint32_t* work, bool /*use_avx2*/) const {
  Touch(&head_[bucket]);  // the list head load below
  uint32_t traversed = 1;
  // acquire (head and next): pairs with the inserter's acq_rel CAS so
  // every node reached through the chain is fully initialised.
  int32_t node = head_[bucket].load(std::memory_order_acquire);
  while (node != kNil) {
    Touch(&pools_->key_value[node]);
    if (pools_->key_value[node] == key_lo &&
        pools_->key_value_hi[node] == key_hi) {
      break;
    }
    ++traversed;
    // acquire: same chain-publication pairing as the head load.
    node = pools_->key_next[node].load(std::memory_order_acquire);
  }
  *work += traversed;
  return node;
}

std::pair<uint64_t, uint64_t> HashTable::MergeFrom(const HashTable& other,
                                                   uint32_t shift,
                                                   simcl::DeviceId dev) {
  uint64_t keys_moved = 0;
  uint64_t rids_moved = 0;
  NodeRun keys(pools_->key_allocator(), dev);
  NodeRun rids(pools_->rid_allocator(), dev);
  // All loads from `other` are relaxed: MergeFrom runs after the span
  // barrier that built `other`, so its lists are quiescent and already
  // synchronised with this thread.
  for (uint32_t b = 0; b < other.num_buckets_; ++b) {
    for (int32_t kn = other.head_[b].load(std::memory_order_relaxed);
         kn != kNil;
         kn = other.pools_->key_next[kn].load(std::memory_order_relaxed)) {
      const int32_t key = other.pools_->key_value[kn];
      // Both tables hash the same way; with equal bucket counts the bucket
      // index carries over, otherwise recompute from the key.
      const uint32_t bucket =
          other.num_buckets_ == num_buckets_
              ? b
              : BucketOf(MurmurHash2x4(static_cast<uint32_t>(key)) >> shift);
      uint32_t work = 0;
      const int32_t dst = FindOrAddKey(bucket, key, keys, &work);
      if (dst == kNil) return {keys_moved, rids_moved};
      ++keys_moved;
      // relaxed: quiescent source table (see loop header comment).
      for (int32_t rn =
               other.pools_->rid_head[kn].load(std::memory_order_relaxed);
           rn != kNil; rn = other.pools_->rid_next[rn]) {
        if (!InsertRid(dst, other.pools_->rid_value[rn], rids)) {
          return {keys_moved, rids_moved};
        }
        ++rids_moved;
        BumpCount(bucket);
      }
    }
  }
  return {keys_moved, rids_moved};
}

double HashTable::WorkingSetBytes() const {
  const double headers = static_cast<double>(num_buckets_) * 8.0;
  // Wide pools carry the secondary key word: 16 B per key node vs 12.
  const double key_node_bytes = pools_->wide_keys() ? 16.0 : 12.0;
  const double keys = static_cast<double>(keys_inserted()) * key_node_bytes;
  const double rids = static_cast<double>(rids_inserted()) * 8.0;
  return headers + keys + rids;
}

uint64_t HashTable::TotalCount() const {
  uint64_t total = 0;
  // relaxed: post-build statistics read on a quiescent table.
  for (const auto& c : count_) {
    total += static_cast<uint64_t>(c.load(std::memory_order_relaxed));
  }
  return total;
}

}  // namespace apujoin::join
