#include "join/simple_hash_join.h"

#include <algorithm>

namespace apujoin::join {

using simcl::DeviceId;

apujoin::Status ShjEngine::Prepare() {
  if (build_->empty() || probe_->empty()) {
    return apujoin::Status::InvalidArgument("empty relation");
  }
  APU_RETURN_IF_ERROR(ResolveKeys());
  // A fused-select filter inserts only its survivors: size the table (and
  // the pools) from that count, exactly as an unfused plan would after
  // materializing the filtered relation.
  const uint64_t nb_live = LiveBuildTuples();
  if (opts_.num_buckets == 0) {
    opts_.num_buckets = opts_.layout == exec::HashLayout::kOpenAddressing
                            ? OpenBucketsFor(nb_live)
                            : NextPow2(nb_live);
  }
  PrepareJoinState(nb_live);
  tables_ = {};
  WithTableType(opts_.layout, [this](auto table) {
    auto* tables = &std::get<TableVec<typename decltype(table)::type>>(tables_);
    AddTable(tables, opts_.num_buckets);
    if (!opts_.shared_table) AddTable(tables, opts_.num_buckets);
  });
  return apujoin::Status::OK();
}

double ShjEngine::TableWorkingSetBytes() const {
  const double nb = static_cast<double>(LiveBuildTuples());
  if (opts_.layout == exec::HashLayout::kOpenAddressing) {
    // Bucket arrays (72 B/bucket; +32 B for the wide secondary key-word
    // line) + one rid node per build tuple.
    return static_cast<double>(opts_.num_buckets) * (wide_ ? 104.0 : 72.0) +
           nb * 8.0;
  }
  // Headers + key nodes (12 B, or 16 B with the secondary word) + rid nodes.
  return static_cast<double>(opts_.num_buckets) * 8.0 +
         nb * (wide_ ? 16.0 : 12.0) + nb * 8.0;
}

std::vector<StepDef> ShjEngine::Steps(bool build, ResultWriter* out,
                                      GroupByEngine* agg) {
  const data::Relation& r = build_keys();
  const data::Relation& s = probe_keys();
  JoinColumns c;
  c.build_items = build_->size();
  c.build_keys = KeyView{r.key_schema, r.keys.data(), r.key_hi.data()};
  c.build_rids = build_->rids.data();
  c.build_filter = build_filter_;
  c.probe_items = probe_->size();
  c.probe_keys = KeyView{s.key_schema, s.keys.data(), s.key_hi.data()};
  c.probe_rids = probe_->rids.data();
  c.emit_keys = probe_->keys.data();
  c.probe_filter = probe_filter_;
  // SHJ buckets are addressed by the unshifted hash; a header visit touches
  // one 8-byte chained header or one 4-byte open state word per bucket.
  c.hash_shift = 0;
  c.header_bytes =
      static_cast<double>(opts_.num_buckets) *
      (opts_.layout == exec::HashLayout::kOpenAddressing ? 4.0 : 8.0);
  c.table_bytes = TableWorkingSetBytes();
  return Series(build, c, out, agg, [this](auto table) {
    return SingleTable(
        std::get<TableVec<typename decltype(table)::type>>(tables_));
  });
}

std::pair<uint64_t, uint64_t> ShjEngine::MergeSeparateTables() {
  if (opts_.shared_table) return {0, 0};
  return WithTableType(opts_.layout, [this](auto table) {
    const auto& tables =
        std::get<TableVec<typename decltype(table)::type>>(tables_);
    if (tables.size() < 2) return std::pair<uint64_t, uint64_t>{0, 0};
    return tables[0]->MergeFrom(*tables[1], /*shift=*/0, DeviceId::kCpu);
  });
}

}  // namespace apujoin::join
