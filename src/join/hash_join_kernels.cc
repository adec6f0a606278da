#include "join/hash_join_kernels.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "util/cpu_features.h"

namespace apujoin::join {

using simcl::DeviceId;

uint64_t HashJoinEngineBase::LiveBuildTuples() const {
  const uint64_t nb = build_->size();
  return build_card_ != 0 ? std::min(build_card_, nb) : nb;
}

const data::Relation& HashJoinEngineBase::build_keys() const {
  return build_->key_schema == data::KeySchema::kDictString ? r_canon_
                                                            : *build_;
}

const data::Relation& HashJoinEngineBase::probe_keys() const {
  return probe_->key_schema == data::KeySchema::kDictString ? s_canon_
                                                            : *probe_;
}

apujoin::Status HashJoinEngineBase::ResolveKeys() {
  const data::KeySchema schema = build_->key_schema;
  if (probe_->key_schema != schema) {
    return apujoin::Status::InvalidArgument(
        "build and probe key schemas differ");
  }
  wide_ = data::KeyIsWide(schema);
  if (!wide_) return apujoin::Status::OK();
  if (!opts_.shared_table) {
    return apujoin::Status::InvalidArgument(
        "wide key schemas require shared_table (the separate-table merge "
        "path is U32-only)");
  }
  if (schema != data::KeySchema::kDictString) {
    if (build_->key_hi.size() != build_->size() ||
        probe_->key_hi.size() != probe_->size()) {
      return apujoin::Status::InvalidArgument(
          "wide key schema requires a key_hi column of matching length");
    }
    return apujoin::Status::OK();
  }

  // DictString: hash-first lookup of every probe dictionary entry in the
  // build dictionary, exact string compare second.
  const data::StringDict& bd = build_->dict;
  const data::StringDict& pd = probe_->dict;
  if (bd.strings.size() != bd.hashes.size() ||
      pd.strings.size() != pd.hashes.size()) {
    return apujoin::Status::InvalidArgument(
        "dict-string relation with out-of-sync dictionary hashes");
  }
  std::unordered_multimap<uint64_t, int32_t> by_hash;
  by_hash.reserve(bd.strings.size());
  for (size_t c = 0; c < bd.strings.size(); ++c) {
    by_hash.emplace(bd.hashes[c], static_cast<int32_t>(c));
  }
  std::vector<int32_t> xlat(pd.strings.size(), kNil);
  for (size_t c = 0; c < pd.strings.size(); ++c) {
    const auto range = by_hash.equal_range(pd.hashes[c]);
    for (auto it = range.first; it != range.second; ++it) {
      if (bd.strings[static_cast<size_t>(it->second)] == pd.strings[c]) {
        xlat[c] = it->second;
        break;
      }
    }
  }
  const uint64_t nb = build_->size();
  const uint64_t np = probe_->size();
  r_canon_.key_schema = schema;
  r_canon_.keys.resize(nb);
  r_canon_.key_hi.resize(nb);
  for (uint64_t i = 0; i < nb; ++i) {
    const int32_t code = build_->keys[i];
    if (code < 0 || static_cast<size_t>(code) >= bd.strings.size()) {
      return apujoin::Status::InvalidArgument(
          "dict-string build code out of dictionary range");
    }
    r_canon_.keys[i] = static_cast<int32_t>(
        static_cast<uint32_t>(bd.hashes[static_cast<size_t>(code)]));
    r_canon_.key_hi[i] = code;
  }
  s_canon_.key_schema = schema;
  s_canon_.keys.resize(np);
  s_canon_.key_hi.resize(np);
  for (uint64_t i = 0; i < np; ++i) {
    const int32_t code = probe_->keys[i];
    if (code < 0 || static_cast<size_t>(code) >= pd.strings.size()) {
      return apujoin::Status::InvalidArgument(
          "dict-string probe code out of dictionary range");
    }
    s_canon_.keys[i] = static_cast<int32_t>(
        static_cast<uint32_t>(pd.hashes[static_cast<size_t>(code)]));
    // Untranslatable probe strings keep hi = kNil (-1), which never equals
    // a build code (>= 0): the probe cannot produce a false match.
    s_canon_.key_hi[i] = xlat[static_cast<size_t>(code)];
  }
  return apujoin::Status::OK();
}

void HashJoinEngineBase::PrepareJoinState(uint64_t nb_live) {
  // The AVX2 bucket compare covers one 32-bit word per slot, so wide
  // schemas fall back to the scalar two-word probe (per-schema, decided
  // here — never per item inside a kernel).
  use_avx2_ = opts_.simd != SimdPolicy::kScalar && CpuSupportsAvx2() && !wide_;

  // Key nodes: one per distinct build key, plus slack for lost CAS races
  // and stranded allocator blocks. Rid nodes: one per build tuple + slack.
  // Separate tables need double headroom: the post-build merge re-allocates
  // a fresh node for every entry it moves (exactly like the real kernel —
  // nodes are never freed back into the pre-allocated array).
  // The open layout keeps keys inline in its bucket arrays, so its key
  // arena is vestigial — only the rid arena carries data.
  const bool open = opts_.layout == exec::HashLayout::kOpenAddressing;
  const uint64_t merge_headroom = opts_.shared_table ? 0 : nb_live;
  const uint64_t key_cap =
      open ? 64
           : nb_live + nb_live / 8 + merge_headroom +
                 PoolSlack(nb_live, opts_.block_bytes, wide_ ? 16 : 12);
  const uint64_t rid_cap =
      nb_live + merge_headroom + PoolSlack(nb_live, opts_.block_bytes, 8);
  pools_ = std::make_unique<NodePools>(key_cap, rid_cap, opts_.allocator,
                                       opts_.block_bytes, wide_);

  const uint64_t nb = build_->size();
  const uint64_t np = probe_->size();
  r_hash_.resize(nb);
  r_bucket_.resize(nb);
  r_keynode_.resize(nb);
  s_hash_.resize(np);
  s_bucket_.resize(np);
  s_keynode_.resize(np);
  s_count_.resize(np);
  perm_.clear();
}

void HashJoinEngineBase::GroupProbeRange(uint64_t n, uint64_t begin,
                                         uint64_t end) {
  if (perm_.size() != n) {
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), 0u);
  }
  end = std::min(end, n);
  if (begin >= end) return;
  // Sort the GPU range so each wavefront sees near-uniform work.
  std::stable_sort(perm_.begin() + static_cast<int64_t>(begin),
                   perm_.begin() + static_cast<int64_t>(end),
                   [this](uint32_t a, uint32_t b) {
                     return s_count_[a] < s_count_[b];
                   });
  // Two streaming passes (estimate + permute) charged to the GPU.
  const double bytes = static_cast<double>(end - begin) * 8.0 * 2.0;
  ctx_->log().Add(simcl::Phase::kGrouping,
                  ctx_->memory().SequentialNs(ctx_->device(DeviceId::kGpu),
                                              bytes));
}

}  // namespace apujoin::join
