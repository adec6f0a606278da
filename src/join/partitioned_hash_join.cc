#include "join/partitioned_hash_join.h"

#include <algorithm>

namespace apujoin::join {

using simcl::DeviceId;

apujoin::Status PhjEngine::Prepare() {
  if (build_->empty() || probe_->empty()) {
    return apujoin::Status::InvalidArgument("empty relation");
  }
  APU_RETURN_IF_ERROR(ResolveKeys());
  // The partitioners scatter whole tuples, so for dict-string keys the
  // canonical key copies they read carry the rids along.
  if (build_->key_schema == data::KeySchema::kDictString) {
    r_canon_.rids = build_->rids;
    s_canon_.rids = probe_->rids;
  }
  // A fused-select filter compacts pass 0 down to its survivors: plan the
  // radix layout (passes, partition count) and size the node pools from
  // that count, exactly as an unfused plan would after materializing the
  // filtered relation.
  const uint64_t nb_live = LiveBuildTuples();
  plan_ = RadixPlan::Make(nb_live, probe_->size(),
                          ctx_->memory().spec().l2_bytes, opts_);
  part_r_ =
      std::make_unique<RadixPartitioner>(ctx_, &build_keys(), plan_, opts_);
  part_s_ =
      std::make_unique<RadixPartitioner>(ctx_, &probe_keys(), plan_, opts_);
  APU_RETURN_IF_ERROR(part_r_->Prepare());
  APU_RETURN_IF_ERROR(part_s_->Prepare());
  PrepareJoinState(nb_live);
  return apujoin::Status::OK();
}

apujoin::Status PhjEngine::PrepareJoinPhase() {
  const auto& off_r = part_r_->offsets();
  const auto& off_s = part_s_->offsets();
  if (off_r.empty() || off_s.empty()) {
    return apujoin::Status::FailedPrecondition(
        "partitioning must complete before the join phase");
  }
  const uint32_t p = plan_.total_partitions;
  tables_ = {};
  tables_gpu_ = {};
  WithTableType(opts_.layout, [&](auto table) {
    using Table = typename decltype(table)::type;
    auto* cpu = &std::get<TableVec<Table>>(tables_);
    auto* gpu = &std::get<TableVec<Table>>(tables_gpu_);
    cpu->reserve(p);
    for (uint32_t i = 0; i < p; ++i) {
      const uint32_t count = off_r[i + 1] - off_r[i];
      const uint32_t buckets =
          kIsOpenTable<Table> ? OpenBucketsFor(std::max<uint32_t>(count, 1))
                              : NextPow2(std::max<uint32_t>(count, 8));
      AddTable(cpu, buckets);
      if (!opts_.shared_table) AddTable(gpu, buckets);
    }
  });
  // Tuple -> partition maps (tuples are contiguous per partition).
  part_of_r_.resize(build_->size());
  for (uint32_t i = 0; i < p; ++i) {
    for (uint32_t j = off_r[i]; j < off_r[i + 1]; ++j) part_of_r_[j] = i;
  }
  part_of_s_.resize(probe_->size());
  for (uint32_t i = 0; i < p; ++i) {
    for (uint32_t j = off_s[i]; j < off_s[i + 1]; ++j) part_of_s_[j] = i;
  }
  return apujoin::Status::OK();
}

double PhjEngine::PartitionWorkingSetBytes() const {
  const double nb = static_cast<double>(LiveBuildTuples());
  if (opts_.layout == exec::HashLayout::kOpenAddressing) {
    // Bucket arrays (72 B/bucket narrow, 104 B with the wide-key lane;
    // ~1 bucket per 4 build keys) + rid nodes.
    const double per_bucket = wide_ ? 104.0 : 72.0;
    const double total =
        nb * (per_bucket / 4.0 + 8.0) +
        static_cast<double>(plan_.total_partitions) * per_bucket;
    return total / static_cast<double>(plan_.total_partitions);
  }
  // Bucket header + key node (12 B narrow, 16 B wide) + rid node per tuple.
  const double key_node = wide_ ? 16.0 : 12.0;
  const double total = nb * (8.0 + key_node + 8.0) +
                       static_cast<double>(plan_.total_partitions) * 64.0;
  return total / static_cast<double>(plan_.total_partitions);
}

uint64_t PhjEngine::CostModelBuckets() const {
  const uint32_t parts = std::max<uint32_t>(plan_.total_partitions, 1);
  const uint32_t per_part =
      static_cast<uint32_t>(std::max<uint64_t>(LiveBuildTuples() / parts, 1));
  if (opts_.layout == exec::HashLayout::kOpenAddressing) {
    return uint64_t{OpenBucketsFor(per_part)} * kOpenSlotsPerBucket;
  }
  return NextPow2(std::max<uint32_t>(per_part, 8));
}

std::vector<StepDef> PhjEngine::Steps(bool build, ResultWriter* out,
                                      GroupByEngine* agg) {
  // The join phase runs over the partitioned survivors (= every tuple
  // unless a fused-select filter shrank pass 0); the partitioners' output
  // buffers are stable once partitioning is done.
  const data::Relation& rp = part_r_->output();
  const data::Relation& sp = part_s_->output();
  JoinColumns c;
  c.build_items = part_r_->offsets().back();
  c.build_keys = KeyView{rp.key_schema, rp.keys.data(), rp.key_hi.data()};
  c.build_rids = rp.rids.data();
  c.probe_items = part_s_->offsets().back();
  c.probe_keys = KeyView{sp.key_schema, sp.keys.data(), sp.key_hi.data()};
  c.probe_rids = sp.rids.data();
  c.emit_keys = sp.keys.data();
  c.hash_shift = plan_.partition_bits;
  c.header_bytes = PartitionWorkingSetBytes();
  c.table_bytes = c.header_bytes;
  return Series(build, c, out, agg, [this](auto table) {
    using Table = typename decltype(table)::type;
    return PartitionTables(std::get<TableVec<Table>>(tables_),
                           std::get<TableVec<Table>>(tables_gpu_),
                           part_of_r_.data(), part_of_s_.data());
  });
}

std::pair<uint64_t, uint64_t> PhjEngine::MergeSeparateTables() {
  if (opts_.shared_table) return {0, 0};
  return WithTableType(opts_.layout, [this](auto table) {
    using Table = typename decltype(table)::type;
    const auto& cpu = std::get<TableVec<Table>>(tables_);
    const auto& gpu = std::get<TableVec<Table>>(tables_gpu_);
    uint64_t keys = 0;
    uint64_t rids = 0;
    // Partition buckets are addressed by the hash shifted past the radix
    // bits, so a merge that recomputes homes must use the same shift.
    for (uint32_t p = 0; p < plan_.total_partitions; ++p) {
      const auto [k, r] =
          cpu[p]->MergeFrom(*gpu[p], plan_.partition_bits, DeviceId::kCpu);
      keys += k;
      rids += r;
    }
    return std::pair<uint64_t, uint64_t>{keys, rids};
  });
}

}  // namespace apujoin::join
