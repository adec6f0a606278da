// Simple hash join (SHJ, Algorithm 1): build + probe step series over the
// paper's bucket/key-list/rid-list hash table, with no partitioning phase.
//
// The engine owns all per-tuple intermediate state (hash values, bucket
// ids, key-node ids) so each fine-grained step is a pure data-parallel
// kernel over tuple indices — exactly the shape the co-processing schemes
// (OL/DD/PL) schedule across the CPU and the GPU.

#ifndef APUJOIN_JOIN_SIMPLE_HASH_JOIN_H_
#define APUJOIN_JOIN_SIMPLE_HASH_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "join/hash_join_kernels.h"
#include "join/hash_table.h"
#include "join/open_hash_table.h"
#include "join/options.h"
#include "join/result_writer.h"
#include "join/steps.h"
#include "simcl/context.h"
#include "util/status.h"

namespace apujoin::join {

class GroupByEngine;

/// SHJ setup, sizing and merge over the shared kernel family
/// (hash_join_kernels.h). One engine instance per join execution.
class ShjEngine : public HashJoinEngineBase {
 public:
  /// `build`/`probe` must outlive the engine.
  ShjEngine(simcl::SimContext* ctx, const data::Relation* build,
            const data::Relation* probe, EngineOptions opts)
      : HashJoinEngineBase(ctx, build, probe, opts) {}

  /// Allocates pools, tables and intermediate arrays.
  apujoin::Status Prepare();

  /// Fused Select→HashJoin edges: a positional selection vector over the
  /// build (resp. probe) relation — every kernel skips dead lanes (their
  /// key is never hashed, looked up, or inserted) at zero work units.
  /// Null (the default) disables filtering; set before the series are
  /// built. Pair a build filter with set_build_cardinality() so the table
  /// is sized for the survivors, not the full relation.
  void set_build_filter(const uint8_t* flags) { build_filter_ = flags; }
  void set_probe_filter(const uint8_t* flags) { probe_filter_ = flags; }

  /// The build step series b1..b4 over |R| items.
  std::vector<StepDef> BuildSteps() { return Steps(true, nullptr, nullptr); }

  /// The probe step series p1..p4 over |S| items, emitting into `out`.
  std::vector<StepDef> ProbeSteps(ResultWriter* out) {
    return Steps(false, out, nullptr);
  }

  /// Fused HashJoin→GroupBy edges: p1..p3 plus a fused probe+aggregate
  /// step (p4g) that folds every match into `agg` instead of emitting
  /// result pairs. `agg` must be PrepareFused()-sized and outlive the run.
  std::vector<StepDef> ProbeStepsFused(GroupByEngine* agg) {
    return Steps(false, nullptr, agg);
  }

  /// Separate-table mode: merge the GPU table into the CPU table after the
  /// build (the paper's merge overhead). Returns {keys, rids} moved.
  std::pair<uint64_t, uint64_t> MergeSeparateTables();

  HashTable* table(int i = 0) {
    return std::get<TableVec<HashTable>>(tables_)[i].get();
  }
  /// Open-layout table (nullptr under the chained layout).
  OpenHashTable* open_table(int i = 0) {
    const auto& open = std::get<TableVec<OpenHashTable>>(tables_);
    return i < static_cast<int>(open.size()) ? open[i].get() : nullptr;
  }
  /// The probe-side table of the configured layout class `Table`.
  template <class Table>
  Table* layout_table() const {
    return std::get<TableVec<Table>>(tables_).front().get();
  }
  int num_tables() const {
    return static_cast<int>(std::get<0>(tables_).size() +
                            std::get<1>(tables_).size());
  }
  /// Hash-table capacity as the cost model sees it: chained bucket count,
  /// or total key slots under the open layout.
  uint64_t CostModelBuckets() const {
    return opts_.layout == exec::HashLayout::kChained
               ? opts_.num_buckets
               : uint64_t{opts_.num_buckets} * kOpenSlotsPerBucket;
  }

  /// Estimated hash-table working set (bytes), used in step profiles.
  double TableWorkingSetBytes() const;

 private:
  std::vector<StepDef> Steps(bool build, ResultWriter* out,
                             GroupByEngine* agg);

  const uint8_t* build_filter_ = nullptr;  // fused-select vector (or null)
  const uint8_t* probe_filter_ = nullptr;
  // The one table ([0]), plus the GPU's private table in separate mode.
  LayoutTables tables_;
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_SIMPLE_HASH_JOIN_H_
