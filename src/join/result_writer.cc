#include "join/result_writer.h"

namespace apujoin::join {

ResultWriter::ResultWriter(uint64_t capacity, alloc::AllocatorKind kind,
                           uint32_t block_bytes)
    : arena_(capacity, /*elem_bytes=*/8),
      alloc_(alloc::MakeAllocator(&arena_, kind, block_bytes)),
      build_rids_(capacity, -1),
      probe_rids_(capacity, -1) {}

ResultWriter::Run::~Run() {
  const alloc::RunTally& t = slots_.tally();
  // relaxed (both): statistics counters — readers of the pairs themselves
  // synchronise through the span barrier, not through these.
  if (t.requests != t.failed) {
    out_->emitted_.fetch_add(t.requests - t.failed, std::memory_order_relaxed);
  }
  if (t.failed != 0) {
    out_->dropped_.fetch_add(t.failed, std::memory_order_relaxed);
  }
  // slots_ flushes the allocator tallies as it is destroyed.
}

void ResultWriter::CaptureKeys() { keys_.assign(arena_.capacity(), 0); }

std::vector<std::pair<int32_t, int32_t>> ResultWriter::CollectPairs() const {
  std::vector<std::pair<int32_t, int32_t>> out;
  out.reserve(count());
  const uint64_t used = arena_.used();
  for (uint64_t i = 0; i < used; ++i) {
    if (build_rids_[i] >= 0) out.emplace_back(build_rids_[i], probe_rids_[i]);
  }
  return out;
}

void ResultWriter::Reset() {
  arena_.Reset();
  alloc_->Reset();
  std::fill(build_rids_.begin(), build_rids_.end(), -1);
  std::fill(probe_rids_.begin(), probe_rids_.end(), -1);
  std::fill(keys_.begin(), keys_.end(), 0);
  // relaxed: Reset runs only between spans, on a quiesced writer.
  emitted_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace apujoin::join
