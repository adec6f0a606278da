#include "join/open_hash_table.h"

#include <stdexcept>
#include <string>

#include "util/cpu_features.h"
#include "util/murmur_hash.h"

#if APUJOIN_HAVE_AVX2
#include <immintrin.h>
#endif

namespace apujoin::join {

using apujoin::MurmurHash2x4;

namespace {
// State-word layout: published slot count in the low bits, insert lock at
// bit 31. The count never exceeds kOpenSlotsPerBucket.
constexpr uint32_t kCountMask = 0xffffu;
constexpr uint32_t kLockBit = 1u << 31;
// Slot ids are int32 (kNil = -1), so 2^27 buckets * 8 slots = 2^30 is the
// ceiling that keeps every id representable.
constexpr uint32_t kMaxOpenBuckets = 1u << 27;

// Validated before the bucket arrays are sized, so a bogus count never
// reaches the allocator.
uint32_t ValidateOpenBuckets(uint32_t num_buckets) {
  if (num_buckets == 0 || (num_buckets & (num_buckets - 1)) != 0 ||
      num_buckets > kMaxOpenBuckets) {
    throw std::invalid_argument(
        "OpenHashTable: num_buckets must be a nonzero power of two <= 2^27, "
        "got " +
        std::to_string(num_buckets));
  }
  return num_buckets;
}
}  // namespace

uint32_t OpenBucketsFor(uint64_t build_tuples) {
  const uint64_t target = (build_tuples + 3) / 4;  // ceil(n/4), min 1
  uint32_t buckets = NextPow2(target == 0 ? 1 : target);
  if (buckets > kMaxOpenBuckets) buckets = kMaxOpenBuckets;
  return buckets;
}

OpenHashTable::OpenHashTable(uint32_t num_buckets, NodePools* pools,
                             bool wide_keys)
    : num_buckets_(ValidateOpenBuckets(num_buckets)),
      pools_(pools),
      keys_(size_t{num_buckets} * kOpenSlotsPerBucket),
      keys_hi_(wide_keys ? size_t{num_buckets} * kOpenSlotsPerBucket : 0),
      rid_head_(size_t{num_buckets} * kOpenSlotsPerBucket),
      state_(num_buckets),
      count_(num_buckets) {
  // AlignedArray zero-initialises: state = {count 0, unlocked}, counts 0.
  // rid heads must start at kNil, not 0 (0 is a valid rid-node index).
  for (size_t i = 0; i < rid_head_.size(); ++i) {
    rid_head_[i].store(kNil, std::memory_order_relaxed);
  }
}

uint32_t OpenHashTable::VisitHeader(uint32_t bucket, int32_t* count) const {
  Touch(&state_[bucket]);
  if (count != nullptr) {
    *count = count_[bucket].load(std::memory_order_relaxed);
  }
  return state_[bucket].load(std::memory_order_acquire) & kCountMask;
}

int32_t OpenHashTable::FindOrAddKey(uint32_t home_bucket, int32_t key,
                                    NodeRun& keys, uint32_t* work) {
  uint32_t probed = 0;
  uint32_t b = home_bucket;
  for (uint32_t step = 0; step < num_buckets_; ++step) {
    ++probed;
    const size_t base = size_t{b} * kOpenSlotsPerBucket;
    Touch(&keys_[base]);
    // Lock-free fast path: scan the published prefix.
    uint32_t cnt =
        state_[b].load(std::memory_order_acquire) & kCountMask;
    for (uint32_t s = 0; s < cnt; ++s) {
      if (keys_[base + s] == key) {
        *work += probed;
        return static_cast<int32_t>(base + s);
      }
    }
    if (cnt < kOpenSlotsPerBucket) {
      // Free slots may exist: take the bucket lock, re-scan what was
      // published while we waited, then claim the next slot.
      uint32_t st = state_[b].load(std::memory_order_relaxed);
      do {
        st &= ~kLockBit;
      } while (!state_[b].compare_exchange_weak(st, st | kLockBit,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed));
      const uint32_t locked_cnt = st & kCountMask;
      for (uint32_t s = cnt; s < locked_cnt; ++s) {
        if (keys_[base + s] == key) {
          state_[b].store(st, std::memory_order_release);  // unlock
          *work += probed;
          return static_cast<int32_t>(base + s);
        }
      }
      if (locked_cnt < kOpenSlotsPerBucket) {
        keys_[base + locked_cnt] = key;
        // Unlock and publish the new slot in one release store; the key
        // write above is ordered before it.
        state_[b].store(locked_cnt + 1, std::memory_order_release);
        keys.CountInsert(&keys_inserted_);
        *work += probed;
        return static_cast<int32_t>(base + locked_cnt);
      }
      // Filled up while we raced for the lock; release and displace.
      state_[b].store(st, std::memory_order_release);
      cnt = locked_cnt;
    }
    b = (b + 1) & (num_buckets_ - 1);
  }
  *work += probed;
  return kNil;  // every bucket full
}

int32_t OpenHashTable::FindOrAddKeyWide(uint32_t home_bucket, int32_t key_lo,
                                        int32_t key_hi, NodeRun& keys,
                                        uint32_t* work) {
  uint32_t probed = 0;
  uint32_t b = home_bucket;
  for (uint32_t step = 0; step < num_buckets_; ++step) {
    ++probed;
    const size_t base = size_t{b} * kOpenSlotsPerBucket;
    Touch(&keys_[base]);
    // Lock-free fast path: scan the published prefix. lo compares first
    // (the hash word), hi second (the dictionary code).
    uint32_t cnt = state_[b].load(std::memory_order_acquire) & kCountMask;
    for (uint32_t s = 0; s < cnt; ++s) {
      if (keys_[base + s] == key_lo && keys_hi_[base + s] == key_hi) {
        *work += probed;
        return static_cast<int32_t>(base + s);
      }
    }
    if (cnt < kOpenSlotsPerBucket) {
      // Free slots may exist: take the bucket lock, re-scan what was
      // published while we waited, then claim the next slot.
      uint32_t st = state_[b].load(std::memory_order_relaxed);
      do {
        st &= ~kLockBit;
      } while (!state_[b].compare_exchange_weak(st, st | kLockBit,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed));
      const uint32_t locked_cnt = st & kCountMask;
      for (uint32_t s = cnt; s < locked_cnt; ++s) {
        if (keys_[base + s] == key_lo && keys_hi_[base + s] == key_hi) {
          state_[b].store(st, std::memory_order_release);  // unlock
          *work += probed;
          return static_cast<int32_t>(base + s);
        }
      }
      if (locked_cnt < kOpenSlotsPerBucket) {
        keys_[base + locked_cnt] = key_lo;
        keys_hi_[base + locked_cnt] = key_hi;
        // Unlock and publish the new slot in one release store; both key
        // word writes above are ordered before it.
        state_[b].store(locked_cnt + 1, std::memory_order_release);
        keys.CountInsert(&keys_inserted_);
        *work += probed;
        return static_cast<int32_t>(base + locked_cnt);
      }
      // Filled up while we raced for the lock; release and displace.
      state_[b].store(st, std::memory_order_release);
      cnt = locked_cnt;
    }
    b = (b + 1) & (num_buckets_ - 1);
  }
  *work += probed;
  return kNil;  // every bucket full
}

bool OpenHashTable::InsertRid(int32_t slot, int32_t rid, NodeRun& rids) {
  const int32_t ni = rids.AllocNode();
  if (ni == kNil) return false;
  pools_->rid_value[ni] = rid;
  Touch(&pools_->rid_value[ni]);
  // Push ni at the rid-list head. The initial load may be relaxed (a
  // stale head just fails the CAS); the CAS is acq_rel — release
  // publishes rid_value/rid_next to acquire-readers of the head,
  // acquire refreshes `old` for the retry.
  int32_t old = rid_head_[slot].load(std::memory_order_relaxed);
  do {
    pools_->rid_next[ni] = old;
  } while (!rid_head_[slot].compare_exchange_weak(
      old, ni, std::memory_order_acq_rel));
  rids.CountInsert(&rids_inserted_);
  return true;
}

int32_t OpenHashTable::FindKeyScalar(uint32_t home_bucket, int32_t key,
                                     uint32_t* work) const {
  uint32_t probed = 0;
  uint32_t b = home_bucket;
  for (uint32_t step = 0; step < num_buckets_; ++step) {
    ++probed;
    const size_t base = size_t{b} * kOpenSlotsPerBucket;
    Touch(&keys_[base]);
    // acquire: pairs with the inserter's release-store of the count so
    // the first `cnt` key slots are visible before we read them.
    const uint32_t cnt =
        state_[b].load(std::memory_order_acquire) & kCountMask;
    for (uint32_t s = 0; s < cnt; ++s) {
      if (keys_[base + s] == key) {
        *work += probed;
        return static_cast<int32_t>(base + s);
      }
    }
    if (cnt < kOpenSlotsPerBucket) break;  // key would have landed here
    b = (b + 1) & (num_buckets_ - 1);
  }
  *work += probed;
  return kNil;
}

int32_t OpenHashTable::FindKeyWide(uint32_t home_bucket, int32_t key_lo,
                                   int32_t key_hi, uint32_t* work,
                                   bool /*use_avx2*/) const {
  uint32_t probed = 0;
  uint32_t b = home_bucket;
  for (uint32_t step = 0; step < num_buckets_; ++step) {
    ++probed;
    const size_t base = size_t{b} * kOpenSlotsPerBucket;
    Touch(&keys_[base]);
    // acquire: pairs with the inserter's release-store of the count so
    // the first `cnt` slots of both key-word arrays are visible.
    const uint32_t cnt = state_[b].load(std::memory_order_acquire) & kCountMask;
    for (uint32_t s = 0; s < cnt; ++s) {
      if (keys_[base + s] == key_lo && keys_hi_[base + s] == key_hi) {
        *work += probed;
        return static_cast<int32_t>(base + s);
      }
    }
    if (cnt < kOpenSlotsPerBucket) break;  // key would have landed here
    b = (b + 1) & (num_buckets_ - 1);
  }
  *work += probed;
  return kNil;
}

#if APUJOIN_HAVE_AVX2
__attribute__((target("avx2"))) int32_t OpenHashTable::FindKeyAvx2(
    uint32_t home_bucket, int32_t key, uint32_t* work) const {
  const __m256i needle = _mm256_set1_epi32(key);
  uint32_t probed = 0;
  uint32_t b = home_bucket;
  for (uint32_t step = 0; step < num_buckets_; ++step) {
    ++probed;
    const size_t base = size_t{b} * kOpenSlotsPerBucket;
    Touch(&keys_[base]);
    // acquire: pairs with the inserter's release-store of the count so
    // the first `cnt` key slots are visible before we read them.
    const uint32_t cnt =
        state_[b].load(std::memory_order_acquire) & kCountMask;
    // One 32-byte load covers the whole bucket (keys_ is 64-byte aligned
    // and buckets are 32 bytes, so the load never splits a cache line).
    const __m256i lane = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(&keys_[base]));
    const __m256i eq = _mm256_cmpeq_epi32(lane, needle);
    uint32_t mask =
        static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
    mask &= (1u << cnt) - 1;  // unpublished slots hold garbage
    if (mask != 0) {
      *work += probed;
      return static_cast<int32_t>(base +
                                  static_cast<uint32_t>(__builtin_ctz(mask)));
    }
    if (cnt < kOpenSlotsPerBucket) break;
    b = (b + 1) & (num_buckets_ - 1);
  }
  *work += probed;
  return kNil;
}
#else
int32_t OpenHashTable::FindKeyAvx2(uint32_t home_bucket, int32_t key,
                                   uint32_t* work) const {
  return FindKeyScalar(home_bucket, key, work);
}
#endif

int32_t OpenHashTable::FindKey(uint32_t home_bucket, int32_t key,
                               uint32_t* work, bool use_avx2) const {
#if APUJOIN_HAVE_AVX2
  if (use_avx2) return FindKeyAvx2(home_bucket, key, work);
#else
  (void)use_avx2;
#endif
  return FindKeyScalar(home_bucket, key, work);
}

std::pair<uint64_t, uint64_t> OpenHashTable::MergeFrom(
    const OpenHashTable& other, uint32_t shift, simcl::DeviceId dev) {
  uint64_t keys_moved = 0;
  uint64_t rids_moved = 0;
  NodeRun keys(pools_->key_allocator(), dev);
  NodeRun rids(pools_->rid_allocator(), dev);
  // All loads from `other` are relaxed: MergeFrom runs after the span
  // barrier that built `other`, so its buckets are quiescent and already
  // synchronised with this thread.
  for (uint32_t b = 0; b < other.num_buckets_; ++b) {
    const uint32_t cnt =
        other.state_[b].load(std::memory_order_relaxed) & kCountMask;
    const size_t base = size_t{b} * kOpenSlotsPerBucket;
    for (uint32_t s = 0; s < cnt; ++s) {
      const int32_t key = other.keys_[base + s];
      // Linear probing displaces keys from their home bucket, so the home
      // must be recomputed from the key's hash, not carried over from `b`.
      const uint32_t home = BucketOf(
          MurmurHash2x4(static_cast<uint32_t>(key)) >> shift);
      uint32_t work = 0;
      const int32_t dst = FindOrAddKey(home, key, keys, &work);
      if (dst == kNil) return {keys_moved, rids_moved};
      ++keys_moved;
      // relaxed: quiescent source table (see loop header comment).
      for (int32_t rn =
               other.rid_head_[base + s].load(std::memory_order_relaxed);
           rn != kNil; rn = other.pools_->rid_next[rn]) {
        if (!InsertRid(dst, other.pools_->rid_value[rn], rids)) {
          return {keys_moved, rids_moved};
        }
        ++rids_moved;
        BumpCount(home);
      }
    }
  }
  return {keys_moved, rids_moved};
}

double OpenHashTable::WorkingSetBytes() const {
  // Bucket arrays are materialised up front: 8 keys (32 B) + 8 rid heads
  // (32 B) + state + count per bucket; wide tables add the 8-slot
  // secondary key-word line (32 B); rid nodes accrue per insert.
  const double per_bucket = keys_hi_.size() != 0 ? 104.0 : 72.0;
  const double buckets = static_cast<double>(num_buckets_) * per_bucket;
  const double rids = static_cast<double>(rids_inserted()) * 8.0;
  return buckets + rids;
}

uint64_t OpenHashTable::TotalCount() const {
  uint64_t total = 0;
  // relaxed: post-build statistics read on a quiescent table.
  for (size_t b = 0; b < count_.size(); ++b) {
    total += static_cast<uint64_t>(count_[b].load(std::memory_order_relaxed));
  }
  return total;
}

}  // namespace apujoin::join
