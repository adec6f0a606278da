// Partitioned (radix) hash join — PHJ, Algorithm 2.
//
// Phase 1: multi-pass radix partitioning of both relations (RadixPartitioner,
// one n1..n3 step series per pass). Phase 2: SHJ on each partition pair.
// In the fine-grained formulation the join phase is still two global step
// series (b1..b4 over all partitioned R tuples, p1..p4 over all partitioned
// S tuples); tuples simply address their own partition's hash table, which
// is small enough to live in the shared L2 — the whole point of PHJ.
//
// Bucket indices use the hash bits *above* the partition bits, so the radix
// partitioning does not degenerate the in-partition bucket distribution.

#ifndef APUJOIN_JOIN_PARTITIONED_HASH_JOIN_H_
#define APUJOIN_JOIN_PARTITIONED_HASH_JOIN_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "join/hash_join_kernels.h"
#include "join/hash_table.h"
#include "join/open_hash_table.h"
#include "join/options.h"
#include "join/radix_partition.h"
#include "join/result_writer.h"
#include "join/steps.h"
#include "simcl/context.h"
#include "util/status.h"

namespace apujoin::join {

class GroupByEngine;

/// PHJ engine: partitioners + per-partition tables over the shared kernel
/// family (hash_join_kernels.h).
class PhjEngine : public HashJoinEngineBase {
 public:
  PhjEngine(simcl::SimContext* ctx, const data::Relation* build,
            const data::Relation* probe, EngineOptions opts)
      : HashJoinEngineBase(ctx, build, probe, opts) {}

  /// Plans the radix partitioning and allocates state.
  apujoin::Status Prepare();

  RadixPartitioner* build_partitioner() { return part_r_.get(); }
  RadixPartitioner* probe_partitioner() { return part_s_.get(); }
  const RadixPlan& radix_plan() const { return plan_; }

  /// Fused Select→HashJoin edges: positional selection vectors over the
  /// build (resp. probe) relation, pushed into pass 0 of the matching
  /// radix partitioner. Dead tuples are never scattered, so later passes
  /// and the whole join phase see only the survivors, compacted — the
  /// join-phase step series shrink to offsets().back() items. Call after
  /// Prepare() and before the partition passes run.
  void set_build_filter(const uint8_t* flags) { part_r_->set_filter(flags); }
  void set_probe_filter(const uint8_t* flags) { part_s_->set_filter(flags); }

  /// Creates the per-partition hash tables. Must be called after both
  /// partitioners finished all passes.
  apujoin::Status PrepareJoinPhase();

  std::vector<StepDef> BuildSteps() { return Steps(true, nullptr, nullptr); }
  std::vector<StepDef> ProbeSteps(ResultWriter* out) {
    return Steps(false, out, nullptr);
  }

  /// Fused HashJoin→GroupBy edges: p1..p3 plus a fused probe+aggregate
  /// step (p4g) that folds every match into `agg` instead of emitting
  /// result pairs. `agg` must be PrepareFused()-sized and outlive the run.
  std::vector<StepDef> ProbeStepsFused(GroupByEngine* agg) {
    return Steps(false, nullptr, agg);
  }

  /// Separate-table mode: merge per-partition GPU tables into CPU tables.
  std::pair<uint64_t, uint64_t> MergeSeparateTables();

  uint32_t num_partitions() const { return plan_.total_partitions; }
  HashTable* table(uint32_t partition) {
    return std::get<TableVec<HashTable>>(tables_)[partition].get();
  }
  /// Open-layout table for `partition` (nullptr under the chained layout).
  OpenHashTable* open_table(uint32_t partition) {
    const auto& open = std::get<TableVec<OpenHashTable>>(tables_);
    return partition < open.size() ? open[partition].get() : nullptr;
  }
  /// Average per-partition table capacity as the cost model sees it:
  /// chained buckets, or total key slots under the open layout.
  uint64_t CostModelBuckets() const;

  /// Average per-partition working set (bytes) — the join phase's random
  /// accesses hit this, not the full table (PHJ's cache advantage).
  double PartitionWorkingSetBytes() const;

 private:
  std::vector<StepDef> Steps(bool build, ResultWriter* out,
                             GroupByEngine* agg);

  RadixPlan plan_;
  std::unique_ptr<RadixPartitioner> part_r_;
  std::unique_ptr<RadixPartitioner> part_s_;
  LayoutTables tables_;
  LayoutTables tables_gpu_;  // separate mode: the GPU's private copies
  std::vector<uint32_t> part_of_r_, part_of_s_;  // tuple -> partition
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_PARTITIONED_HASH_JOIN_H_
