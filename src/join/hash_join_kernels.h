// One hash-join kernel family for SHJ and PHJ (Algorithms 1 and 2).
//
// The paper's PHJ is radix partitioning followed by SHJ's own build
// (b1..b4) and probe (p1..p4) steps on every partition pair, so both
// engines share the step kernels below, written once as templates over
//
//   Table   the hash-table class — HashTable (chained) or OpenHashTable —
//           which expose one method surface (see hash_table.h);
//   kWide   the key width: one U32 word, or two canonical words;
//   Tables  the table selector, i.e. which table item i addresses.
//           SingleTable (SHJ) is the one table, or the device-private table
//           of a GPU build kernel in separate mode; PartitionTables (PHJ)
//           is the item's partition table, resolved per item.
//
// An engine supplies only what differs between the two algorithms: the
// columns the kernels read and the profile working sets (JoinColumns), and
// the selector. Layout and key width are dispatched once, at StepDef
// construction (WithKernelTypes); no kernel body branches on either.

#ifndef APUJOIN_JOIN_HASH_JOIN_KERNELS_H_
#define APUJOIN_JOIN_HASH_JOIN_KERNELS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "join/groupby_engine.h"
#include "join/hash_table.h"
#include "join/open_hash_table.h"
#include "join/options.h"
#include "join/result_writer.h"
#include "join/steps.h"
#include "simcl/context.h"
#include "util/murmur_hash.h"
#include "util/status.h"

namespace apujoin::join {

template <class Table>
using TableVec = std::vector<std::unique_ptr<Table>>;

/// An engine's tables, one vector per layout class; only the configured
/// layout's vector is populated. Indexed as std::get<TableVec<Table>>.
using LayoutTables = std::tuple<TableVec<HashTable>, TableVec<OpenHashTable>>;

template <class Table>
inline constexpr bool kIsOpenTable = std::is_same_v<Table, OpenHashTable>;

template <class T>
struct TypeTag {
  using type = T;
};

/// Calls `fn(TypeTag<Table>{})` with the table class of `layout` — the one
/// runtime layout dispatch, taken at setup or StepDef-construction scope.
template <class Fn>
decltype(auto) WithTableType(exec::HashLayout layout, Fn&& fn) {
  if (layout == exec::HashLayout::kOpenAddressing) {
    return fn(TypeTag<OpenHashTable>{});
  }
  return fn(TypeTag<HashTable>{});
}

/// Calls `fn(TypeTag<Table>{}, std::bool_constant<kWide>{})`: the layout
/// and key-width dispatch in front of every kernel-family instantiation.
template <class Fn>
decltype(auto) WithKernelTypes(exec::HashLayout layout, bool wide, Fn&& fn) {
  return WithTableType(layout, [&](auto table) {
    return wide ? fn(table, std::true_type{}) : fn(table, std::false_type{});
  });
}

/// With separate per-device tables, b3 and b4 of one tuple may run on
/// different devices — the pipelined scheme gives the steps different
/// ratios — so b3 tags a key id issued by a GPU-private table and b4
/// addresses the issuing table: an open-layout slot id is only valid in
/// that table, and a chained key node (a global pool index) must have its
/// rid counted in that table's bucket, the one the merge carries over. Key
/// ids stay below the tag bit (at most 2^27 buckets of 8 slots; key pools
/// are sized by the build side).
inline constexpr int32_t kGpuSlotTag = int32_t{1} << 30;

/// SHJ's table selector: every item addresses the one table — except a
/// build kernel on the GPU in separate mode, which fills the GPU's private
/// table (merged into the CPU table after the build).
template <class Table>
struct SingleTable {
  explicit SingleTable(const TableVec<Table>& tables)
      : cpu(tables.front().get()), gpu(tables.back().get()) {}
  Table* Build(uint64_t, simcl::DeviceId dev) const {
    return dev == simcl::DeviceId::kGpu ? gpu : cpu;
  }
  Table* Probe(uint64_t) const { return cpu; }

  Table* cpu;
  Table* gpu;  // == cpu for a shared table
};

/// PHJ's table selector: a partitioned tuple addresses its partition's
/// table (`part_of_r` / `part_of_s` map tuple index to partition), or the
/// GPU's private copy for GPU build kernels in separate mode.
template <class Table>
struct PartitionTables {
  PartitionTables(const TableVec<Table>& cpu_tables,
                  const TableVec<Table>& gpu_tables,
                  const uint32_t* build_parts, const uint32_t* probe_parts)
      : cpu(cpu_tables.data()),
        gpu(gpu_tables.empty() ? cpu_tables.data() : gpu_tables.data()),
        part_of_r(build_parts),
        part_of_s(probe_parts) {}
  Table* Build(uint64_t i, simcl::DeviceId dev) const {
    return (dev == simcl::DeviceId::kGpu ? gpu : cpu)[part_of_r[i]].get();
  }
  Table* Probe(uint64_t j) const { return cpu[part_of_s[j]].get(); }

  const std::unique_ptr<Table>* cpu;
  const std::unique_ptr<Table>* gpu;  // == cpu for shared tables
  const uint32_t* part_of_r;
  const uint32_t* part_of_s;
};

/// The engine-specific inputs of one kernel family instantiation.
struct JoinColumns {
  // Build side: b1..b4 run over `build_items` items.
  uint64_t build_items = 0;
  KeyView build_keys;  // canonical key words hashed and inserted
  const int32_t* build_rids = nullptr;
  const uint8_t* build_filter = nullptr;  // fused-select flags, or null
  // Probe side: p1..p4 run over `probe_items` items.
  uint64_t probe_items = 0;
  KeyView probe_keys;
  const int32_t* probe_rids = nullptr;
  const int32_t* emit_keys = nullptr;  // key column of keyed result pairs
  const uint8_t* probe_filter = nullptr;
  /// Bucket = BucketOf(hash >> hash_shift): 0 for SHJ; PHJ skips the radix
  /// bits so partitioning does not degenerate the in-partition buckets.
  uint32_t hash_shift = 0;
  double header_bytes = 0.0;  // b2/p2 profile working set
  double table_bytes = 0.0;   // b3/b4/p3/p4 profile working set
};

/// State, setup and step kernels shared by ShjEngine and PhjEngine: key
/// canonicalization, node pools, the per-tuple intermediate columns between
/// steps, the probe grouping permutation, and the b1..b4 / p1..p4(g)
/// kernel family. The engines add their tables, sizing, working-set model
/// and merge.
class HashJoinEngineBase {
 public:
  NodePools& pools() { return *pools_; }
  const EngineOptions& options() const { return opts_; }
  /// True if any kernel hit arena or result-buffer exhaustion.
  bool overflowed() const {
    // relaxed: sticky flag read after the spans that may set it.
    return overflowed_.load(std::memory_order_relaxed);
  }
  /// True when the probe kernels take the AVX2 bucket-compare path.
  bool probe_uses_avx2() const { return use_avx2_; }
  /// The workload-divergence grouping permutation used in p3/p4 (empty =
  /// identity); exposed for tests.
  const std::vector<uint32_t>& probe_permutation() const { return perm_; }
  /// Key schema shared by both relations (validated in Prepare()).
  data::KeySchema key_schema() const { return build_->key_schema; }

  /// Number of live build lanes under a fused-select build filter (the
  /// select's survivor count). Prepare() sizes tables, pools and the radix
  /// plan from it, exactly as an unfused plan would for the materialized
  /// filtered relation. 0 (the default) means unfiltered; set before
  /// Prepare().
  void set_build_cardinality(uint64_t n) { build_card_ = n; }

 protected:
  HashJoinEngineBase(simcl::SimContext* ctx, const data::Relation* build,
                     const data::Relation* probe, EngineOptions opts)
      : ctx_(ctx), build_(build), probe_(probe), opts_(opts) {}

  /// Live build tuples: the fused select's survivor count, or |R|.
  uint64_t LiveBuildTuples() const;

  /// Validates the build/probe key schemas and resolves the key width.
  /// Dict-string keys are canonicalized into r_canon_/s_canon_ (keys = lo =
  /// low32(Murmur64(string)), key_hi = build-side dictionary code; probe
  /// codes translated once per dictionary entry), so the kernels and the
  /// partitioners never touch strings. Rids are not copied.
  apujoin::Status ResolveKeys();

  /// The relation whose key columns the join reads: the canonical copy for
  /// dict-string keys, the input relation otherwise.
  const data::Relation& build_keys() const;
  const data::Relation& probe_keys() const;

  /// Allocates the node pools for `nb_live` live build tuples, resolves the
  /// AVX2 probe policy, and sizes the per-tuple state for |R| and |S|.
  void PrepareJoinState(uint64_t nb_live);

  /// Appends a `buckets`-bucket table (traced into the context's cache
  /// simulator, if any) to `tables`.
  template <class Table>
  void AddTable(TableVec<Table>* tables, uint32_t buckets) {
    tables->push_back(std::make_unique<Table>(buckets, pools_.get(), wide_));
    if (ctx_->cache() != nullptr) tables->back()->set_cache(ctx_->cache());
  }

  /// The build series b1..b4 (`build`), or the probe series p1..p3 plus p4
  /// emitting into `out` — or, when `agg` is set, the fused probe+aggregate
  /// step p4g folding every match into `agg`. `select(TypeTag<Table>{})`
  /// returns the engine's table selector for the configured layout.
  template <class SelectFn>
  std::vector<StepDef> Series(bool build, const JoinColumns& cols,
                              ResultWriter* out, GroupByEngine* agg,
                              SelectFn&& select) {
    return WithKernelTypes(opts_.layout, wide_, [&](auto table, auto wide) {
      using Table = typename decltype(table)::type;
      constexpr bool kWide = decltype(wide)::value;
      const auto tables = select(table);
      return build ? BuildSeries<Table, kWide>(tables, cols)
                   : ProbeSeries<Table, kWide>(tables, cols, out, agg);
    });
  }

  simcl::SimContext* ctx_;
  const data::Relation* build_;
  const data::Relation* probe_;
  EngineOptions opts_;
  uint64_t build_card_ = 0;  // live build lanes under the filter (0 = all)
  bool use_avx2_ = false;    // resolved from opts_.simd in Prepare()
  bool wide_ = false;        // KeyIsWide(key_schema()), resolved in Prepare()
  std::unique_ptr<NodePools> pools_;
  // Dict-string canonical key columns (see ResolveKeys).
  data::Relation r_canon_, s_canon_;

 private:
  template <class Table, bool kWide, class Tables>
  std::vector<StepDef> BuildSeries(const Tables& tables,
                                   const JoinColumns& c);
  template <class Table, bool kWide, class Tables>
  std::vector<StepDef> ProbeSeries(const Tables& tables, const JoinColumns& c,
                                   ResultWriter* out, GroupByEngine* agg);

  /// Sorts the GPU probe range [begin, end) of the grouping permutation by
  /// the p2 workload estimate (divergence grouping) and charges the two
  /// streaming passes to the GPU.
  void GroupProbeRange(uint64_t n, uint64_t begin, uint64_t end);

  std::atomic<bool> overflowed_{false};  // kernels may set it concurrently
  // Per-tuple intermediate state (the "pipeline registers" between steps).
  std::vector<uint32_t> r_hash_, s_hash_;
  std::vector<uint32_t> r_bucket_, s_bucket_;
  std::vector<int32_t> r_keynode_, s_keynode_;  // key nodes / open slot ids
  std::vector<int32_t> s_count_;  // p2 workload estimate (grouping input)
  std::vector<uint32_t> perm_;    // probe grouping permutation
};

// ---------------------------------------------------------------------------
// The kernel family. Column views are captured once per StepDef; each
// per-morsel call runs one tight loop with no per-item dispatch.
// ---------------------------------------------------------------------------

/// b1 / p1: hash the key column. Fused-select dead lanes are never hashed
/// (b3/p3 check the filter before reading the hash or bucket).
template <bool kWide>
StepDef HashStep(const char* name, uint64_t items, KeyView keys,
                 const uint8_t* filter, uint32_t* hash) {
  StepDef s;
  s.name = name;
  s.profile = HashStepProfile(data::KeyBytes(keys.schema));
  s.items = items;
  s.run = [keys, filter, hash](const Morsel& m, simcl::DeviceId,
                               uint32_t* lw) -> uint64_t {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (filter != nullptr && filter[i] == 0) continue;
      if constexpr (kWide) {
        hash[i] = MurmurHash2x8(data::PackKeyPair(keys.lo[i], keys.hi[i]));
      } else {
        hash[i] = MurmurHash2x4(static_cast<uint32_t>(keys.lo[i]));
      }
    }
    return ConstantWork(lw, m);
  };
  return s;
}

template <class Table, bool kWide, class Tables>
std::vector<StepDef> HashJoinEngineBase::BuildSeries(const Tables& tables,
                                                     const JoinColumns& c) {
  const uint64_t n = c.build_items;
  const KeyView rk = c.build_keys;
  const int32_t* r_rids = c.build_rids;
  const uint8_t* bf = c.build_filter;
  const uint32_t shift = c.hash_shift;
  // Only the open layout prefetches; chained walks keep dist = 0.
  const uint32_t dist = kIsOpenTable<Table> ? opts_.prefetch_dist : 0;
  uint32_t* r_hash = r_hash_.data();
  uint32_t* r_bucket = r_bucket_.data();
  int32_t* r_keynode = r_keynode_.data();
  NodePools* pools = pools_.get();
  std::atomic<bool>* overflowed = &overflowed_;
  std::vector<StepDef> steps;

  steps.push_back(HashStep<kWide>("b1", n, rk, bf, r_hash));

  StepDef b2;
  b2.name = "b2";
  b2.profile = HeaderVisitProfile(c.header_bytes);
  b2.items = n;
  b2.run = [tables, bf, shift, r_hash, r_bucket](
               const Morsel& m, simcl::DeviceId dev, uint32_t* lw) -> uint64_t {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (bf != nullptr && bf[i] == 0) continue;
      Table* t = tables.Build(i, dev);
      r_bucket[i] = t->BucketOf(r_hash[i] >> shift);
      t->VisitHeader(r_bucket[i]);
    }
    return ConstantWork(lw, m);
  };
  steps.push_back(std::move(b2));

  StepDef b3;
  b3.name = "b3";
  b3.profile = kIsOpenTable<Table>
                   ? OpenKeyInsertProfile(c.table_bytes, opts_.locality_boost)
                   : KeyInsertProfile(c.table_bytes, opts_.locality_boost);
  b3.items = n;
  b3.run = [tables, pools, bf, dist, rk, r_bucket, r_keynode, overflowed](
               const Morsel& m, simcl::DeviceId dev, uint32_t* lw) -> uint64_t {
    NodeRun keys(pools->key_allocator(), dev, WorkgroupOf(m.begin));
    uint64_t total = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (dist != 0 && i + dist < m.end) {
        tables.Build(i + dist, dev)->PrefetchBucket(r_bucket[i + dist]);
      }
      uint32_t work = 0;
      if (bf != nullptr && bf[i] == 0) {
        r_keynode[i] = kNil;  // fused-select dead lane: never inserted
      } else {
        Table* t = tables.Build(i, dev);
        keys.SetWorkgroup(WorkgroupOf(i));
        if constexpr (kWide) {
          r_keynode[i] = t->FindOrAddKeyWide(r_bucket[i], rk.lo[i], rk.hi[i],
                                             keys, &work);
        } else {
          r_keynode[i] = t->FindOrAddKey(r_bucket[i], rk.lo[i], keys, &work);
        }
        if (r_keynode[i] == kNil) {
          *overflowed = true;
        } else if (dev == simcl::DeviceId::kGpu) {
          r_keynode[i] |= kGpuSlotTag;
        }
      }
      total += RecordWork(lw, m, i, work);
    }
    return total;
  };
  steps.push_back(std::move(b3));

  StepDef b4;
  b4.name = "b4";
  b4.profile = RidInsertProfile(c.table_bytes);
  b4.items = n;
  b4.run = [tables, pools, r_rids, r_bucket, r_keynode, overflowed](
               const Morsel& m, simcl::DeviceId dev, uint32_t* lw) -> uint64_t {
    NodeRun rids(pools->rid_allocator(), dev, WorkgroupOf(m.begin));
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (r_keynode[i] == kNil) continue;
      const int32_t node = r_keynode[i] & ~kGpuSlotTag;
      Table* t = tables.Build(i, (r_keynode[i] & kGpuSlotTag) != 0
                                     ? simcl::DeviceId::kGpu
                                     : simcl::DeviceId::kCpu);
      rids.SetWorkgroup(WorkgroupOf(i));
      if (!t->InsertRid(node, r_rids[i], rids)) {
        *overflowed = true;
        continue;
      }
      t->BumpCount(r_bucket[i]);
    }
    return ConstantWork(lw, m);
  };
  steps.push_back(std::move(b4));
  return steps;
}

template <class Table, bool kWide, class Tables>
std::vector<StepDef> HashJoinEngineBase::ProbeSeries(const Tables& tables,
                                                     const JoinColumns& c,
                                                     ResultWriter* out,
                                                     GroupByEngine* agg) {
  const uint64_t n = c.probe_items;
  const KeyView sk = c.probe_keys;
  const int32_t* s_rids = c.probe_rids;
  const int32_t* s_keys = c.emit_keys;
  const uint8_t* pf = c.probe_filter;
  const uint32_t shift = c.hash_shift;
  const uint32_t dist = kIsOpenTable<Table> ? opts_.prefetch_dist : 0;
  const bool avx2 = use_avx2_;
  uint32_t* s_hash = s_hash_.data();
  uint32_t* s_bucket = s_bucket_.data();
  int32_t* s_keynode = s_keynode_.data();
  int32_t* s_count = s_count_.data();
  // p2's after-hook builds the grouping permutation after these StepDefs
  // exist, so p3/p4 resolve its view per morsel, not per step.
  const std::vector<uint32_t>* perm_vec = &perm_;
  std::atomic<bool>* overflowed = &overflowed_;
  std::vector<StepDef> steps;

  steps.push_back(HashStep<kWide>("p1", n, sk, pf, s_hash));

  StepDef p2;
  p2.name = "p2";
  p2.profile = HeaderVisitProfile(c.header_bytes);
  p2.items = n;
  p2.run = [tables, pf, shift, s_hash, s_bucket, s_count](
               const Morsel& m, simcl::DeviceId, uint32_t* lw) -> uint64_t {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (pf != nullptr && pf[i] == 0) {
        s_count[i] = 0;  // the grouping sort reads every lane's estimate
        continue;
      }
      Table* t = tables.Probe(i);
      s_bucket[i] = t->BucketOf(s_hash[i] >> shift);
      int32_t count = 0;
      t->VisitHeader(s_bucket[i], &count);
      s_count[i] = count;
    }
    return ConstantWork(lw, m);
  };
  if (opts_.grouping) {
    p2.after = [this, n](uint64_t begin, uint64_t end) {
      GroupProbeRange(n, begin, end);
    };
  }
  steps.push_back(std::move(p2));

  StepDef p3;
  p3.name = "p3";
  p3.profile = kIsOpenTable<Table>
                   ? OpenKeySearchProfile(c.table_bytes, opts_.locality_boost)
                   : KeySearchProfile(c.table_bytes, opts_.locality_boost);
  p3.items = n;
  p3.run = [tables, pf, dist, avx2, sk, s_bucket, s_keynode, perm_vec](
               const Morsel& m, simcl::DeviceId, uint32_t* lw) -> uint64_t {
    const uint32_t* perm = perm_vec->empty() ? nullptr : perm_vec->data();
    uint64_t total = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      const uint64_t j = perm != nullptr ? perm[i] : i;
      if (dist != 0 && i + dist < m.end) {
        const uint64_t jn = perm != nullptr ? perm[i + dist] : i + dist;
        tables.Probe(jn)->PrefetchBucket(s_bucket[jn]);
      }
      uint32_t work = 0;
      if (pf != nullptr && pf[j] == 0) {
        s_keynode[j] = kNil;  // fused-select dead lane: the lookup never runs
      } else {
        Table* t = tables.Probe(j);
        if constexpr (kWide) {
          s_keynode[j] =
              t->FindKeyWide(s_bucket[j], sk.lo[j], sk.hi[j], &work, avx2);
        } else {
          s_keynode[j] = t->FindKey(s_bucket[j], sk.lo[j], &work, avx2);
        }
      }
      total += RecordWork(lw, m, i, work);
    }
    return total;
  };
  steps.push_back(std::move(p3));

  if (agg != nullptr) {
    StepDef p4g;
    p4g.name = "p4g";
    p4g.profile = FusedEmitAggProfile(
        c.table_bytes, agg->TableWorkingSetBytes(), opts_.locality_boost);
    p4g.items = n;
    p4g.run = [tables, agg, s_rids, s_keys, s_keynode, perm_vec](
                  const Morsel& m, simcl::DeviceId, uint32_t* lw) -> uint64_t {
      const uint32_t* perm = perm_vec->empty() ? nullptr : perm_vec->data();
      AggRun run(agg);
      uint64_t total = 0;
      for (uint64_t i = m.begin; i < m.end; ++i) {
        const uint64_t j = perm != nullptr ? perm[i] : i;
        uint32_t work = 1;
        if (s_keynode[j] != kNil) {
          const int32_t srid = s_rids[j];
          const int32_t skey = s_keys[j];
          work += tables.Probe(j)->ForEachRid(
              s_keynode[j], [&run, skey, srid](int32_t) {
                // The match streams into the morsel's aggregation run; the
                // <build rid, probe rid> pair is never materialized.
                run.Fold(skey, static_cast<int64_t>(srid));
              });
        }
        total += RecordWork(lw, m, i, work);
      }
      return total;
    };
    steps.push_back(std::move(p4g));
    return steps;
  }

  StepDef p4;
  p4.name = "p4";
  p4.profile = EmitProfile(c.table_bytes, opts_.locality_boost);
  p4.items = n;
  p4.run = [tables, out, s_rids, s_keys, s_keynode, perm_vec, overflowed](
               const Morsel& m, simcl::DeviceId dev, uint32_t* lw) -> uint64_t {
    const uint32_t* perm = perm_vec->empty() ? nullptr : perm_vec->data();
    const bool keyed = out->captures_keys();
    ResultWriter::Run run(out, dev, WorkgroupOf(m.begin));
    uint64_t total = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      const uint64_t j = perm != nullptr ? perm[i] : i;
      uint32_t work = 1;
      if (s_keynode[j] != kNil) {
        const int32_t srid = s_rids[j];
        const int32_t skey = s_keys[j];
        run.SetWorkgroup(WorkgroupOf(i));
        work += tables.Probe(j)->ForEachRid(
            s_keynode[j], [&run, keyed, skey, srid, overflowed](int32_t brid) {
              const bool ok =
                  keyed ? run.Emit(skey, brid, srid) : run.Emit(brid, srid);
              if (!ok) *overflowed = true;
            });
      }
      total += RecordWork(lw, m, i, work);
    }
    return total;
  };
  steps.push_back(std::move(p4));
  return steps;
}

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_HASH_JOIN_KERNELS_H_
