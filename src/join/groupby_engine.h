// Hash group-by/aggregate over join output: one morsel step (g1) that
// folds every emitted <key, build rid, probe rid> result tuple into an
// open-addressing aggregate table keyed by the join key.
//
// The table is built for cross-backend determinism: slots are claimed with
// a CAS on the key word itself, and every aggregate update is a commutative
// atomic (fetch_add for count/sum, a CAS min/max loop), so the final per-key
// values are bit-identical no matter how morsels interleave — the sim and
// thread-pool backends agree exactly, and Materialize() sorts by key to
// erase the only remaining order freedom (slot placement under collisions).
//
// Kernels fold tuples through an AggRun, one per morsel: a small private
// combiner that claims a key's slot on its first occurrence (so slots are
// claimed in the same order as a per-tuple fold would claim them) and
// applies each entry's partial aggregate to the shared slot once, when the
// entry is evicted or the run closes.
//
// Fused mode (HashJoin→GroupBy edges): the engine is sized up front from a
// distinct-key bound and the join's probe kernels fold every match into an
// AggRun instead of emitting <build rid, probe rid> pairs through a result
// writer — the pair materialization and the g1 rescan both disappear.

#ifndef APUJOIN_JOIN_GROUPBY_ENGINE_H_
#define APUJOIN_JOIN_GROUPBY_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "join/group_row.h"
#include "join/result_writer.h"
#include "join/steps.h"
#include "plan/plan.h"
#include "util/murmur_hash.h"
#include "util/status.h"

namespace apujoin::join {

/// Group-by kernels + aggregate table. One engine per GroupBy node; runs
/// after the upstream join's writer has been filled (unfused), or inline
/// inside the join's probe kernels (fused).
class GroupByEngine {
 public:
  /// `results` must have captured keys (ResultWriter::CaptureKeys) and must
  /// outlive the engine.
  GroupByEngine(const ResultWriter* results, plan::AggFn agg);

  /// Fused mode: no result writer exists — the join's probe kernels fold
  /// matches straight into AggRuns. Size with PrepareFused().
  explicit GroupByEngine(plan::AggFn agg);

  /// Sizes the aggregate table (load factor <= 1/2) and rejects inputs
  /// whose keys collide with the empty-slot sentinel.
  apujoin::Status Prepare();

  /// Fused mode: sizes the aggregate table for at most `max_distinct`
  /// distinct keys (load factor <= 1/2). The caller must guarantee no
  /// folded key equals kEmptyKey — the pipeline runner scans the
  /// build keys and demotes fusion when the sentinel appears.
  apujoin::Status PrepareFused(uint64_t max_distinct);

  /// The aggregation step series (g1) over the writer's used slots.
  std::vector<StepDef> Steps();

  /// Collects the groups, sorted by key. Call after the series ran.
  std::vector<GroupRow> Materialize() const;

  uint64_t num_groups() const;
  /// Total tuples accumulated (= the join's match count in fused mode).
  uint64_t total_count() const;
  double TableWorkingSetBytes() const {
    // key word + value + count per slot.
    return static_cast<double>(keys_.size()) * 20.0;
  }
  plan::AggFn agg() const { return agg_; }

  /// Software-prefetch lookahead of the g1 scan loop (0 = off).
  void set_prefetch_dist(uint32_t dist) { prefetch_dist_ = dist; }

  /// Key value reserved for empty slots; inputs containing it are rejected
  /// by Prepare().
  static constexpr int32_t kEmptyKey = INT32_MIN;

 private:
  friend class AggRun;

  /// Finds or claims `key`'s slot with a CAS linear probe from its home
  /// slot; `*probes` receives the slots visited. Without deletes a key's
  /// slot never moves, so every later probe for it visits the same slots.
  uint32_t Claim(int32_t key, uint32_t* probes) {
    uint32_t work = 1;
    uint32_t b = MurmurHash2x4(static_cast<uint32_t>(key)) & mask_;
    for (;;) {
      // relaxed: the slot's key IS the atomic value — a successful CAS
      // publishes it; aggregate slots are read only after the span
      // barrier, so no ordering beyond the RMW itself is needed.
      int32_t cur = keys_[b].load(std::memory_order_relaxed);
      if (cur == kEmptyKey) {
        if (keys_[b].compare_exchange_strong(cur, key,
                                             std::memory_order_relaxed)) {
          cur = key;
        }
        // CAS failure loads the racing claimant's key into `cur`.
      }
      if (cur == key) break;
      b = (b + 1) & mask_;
      ++work;
    }
    *probes = work;
    return b;
  }

  /// Applies a partial aggregate of `count` tuples to `slot` — the one
  /// site that read-modify-writes counts_/values_.
  void Flush(uint32_t slot, uint64_t count, int64_t value) {
    // relaxed: commutative statistics updates, read after the barrier.
    counts_[slot].fetch_add(count, std::memory_order_relaxed);
    switch (agg_) {
      case plan::AggFn::kCount:
        break;
      case plan::AggFn::kSum:
        // relaxed: commutative (wrapping) add, read after the barrier.
        values_[slot].fetch_add(value, std::memory_order_relaxed);
        break;
      case plan::AggFn::kMin: {
        // relaxed: monotone CAS loop, read after the barrier.
        int64_t cur = values_[slot].load(std::memory_order_relaxed);
        while (value < cur && !values_[slot].compare_exchange_weak(
                                  cur, value, std::memory_order_relaxed)) {
        }
        break;
      }
      case plan::AggFn::kMax: {
        // relaxed: monotone CAS loop, read after the barrier.
        int64_t cur = values_[slot].load(std::memory_order_relaxed);
        while (value > cur && !values_[slot].compare_exchange_weak(
                                  cur, value, std::memory_order_relaxed)) {
        }
        break;
      }
    }
  }

  /// Pulls `slot`'s aggregate lines in for writing, so the Flush that
  /// lands there later finds them in cache instead of stalling on a miss.
  void PrefetchAggregate(uint32_t slot) const {
    __builtin_prefetch(&counts_[slot], 1, 3);
    if (agg_ != plan::AggFn::kCount) __builtin_prefetch(&values_[slot], 1, 3);
  }

  const ResultWriter* results_;
  plan::AggFn agg_;
  uint32_t mask_ = 0;
  uint32_t prefetch_dist_ = 0;
  std::vector<std::atomic<int32_t>> keys_;
  std::vector<std::atomic<int64_t>> values_;
  std::vector<std::atomic<uint64_t>> counts_;
};

/// A morsel-private aggregation run (the group-by counterpart of
/// ResultWriter::Run): folds one morsel's tuples into a direct-mapped
/// combiner on the stack. A miss claims the key's shared slot at once and
/// caches it with its probe count; a hit folds privately; an evicted entry
/// and every live entry at close are flushed with one shared update each.
/// Final group rows equal a per-tuple fold's: COUNT and SUM (wrapping, as
/// the atomic add wraps) are commutative, MIN/MAX are idempotent.
class AggRun {
 public:
  explicit AggRun(GroupByEngine* agg) : agg_(agg) {}
  AggRun(const AggRun&) = delete;
  AggRun& operator=(const AggRun&) = delete;
  ~AggRun() {
    for (uint64_t live = live_; live != 0; live &= live - 1) {
      const Entry& e = entries_[__builtin_ctzll(live)];
      agg_->Flush(e.slot, e.count, e.value);
    }
  }

  /// Folds one tuple. Returns the slot probes a linear probe for `key`
  /// performs in the shared table (g1's work units). `key` must not equal
  /// GroupByEngine::kEmptyKey.
  uint32_t Fold(int32_t key, int64_t val) {
    const uint32_t i = (static_cast<uint32_t>(key) * 0x9E3779B1u) >>
                       (32 - kEntryBits);
    const uint64_t bit = uint64_t{1} << i;
    Entry& e = entries_[i];
    if ((live_ & bit) != 0) {
      if (e.key == key) {
        ++e.count;
        switch (agg_->agg_) {
          case plan::AggFn::kCount:
            break;
          case plan::AggFn::kSum:
            e.value = static_cast<int64_t>(static_cast<uint64_t>(e.value) +
                                           static_cast<uint64_t>(val));
            break;
          case plan::AggFn::kMin:
            e.value = std::min(e.value, val);
            break;
          case plan::AggFn::kMax:
            e.value = std::max(e.value, val);
            break;
        }
        return e.probes;
      }
      agg_->Flush(e.slot, e.count, e.value);
    }
    live_ |= bit;
    e.key = key;
    e.slot = agg_->Claim(key, &e.probes);
    agg_->PrefetchAggregate(e.slot);
    e.count = 1;
    e.value = val;
    return e.probes;
  }

 private:
  static constexpr uint32_t kEntryBits = 6;  // 64 entries, one live mask

  struct Entry {
    int32_t key;
    uint32_t slot;
    uint32_t probes;
    uint64_t count;
    int64_t value;
  };

  GroupByEngine* agg_;
  uint64_t live_ = 0;  // bit i set = entries_[i] holds a key
  Entry entries_[uint32_t{1} << kEntryBits];  // read only where live_ says
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_GROUPBY_ENGINE_H_
