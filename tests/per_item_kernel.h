// Test helper: adapts a per-item functor to the morsel kernel ABI.

#ifndef APUJOIN_TESTS_PER_ITEM_KERNEL_H_
#define APUJOIN_TESTS_PER_ITEM_KERNEL_H_

#include <cstdint>
#include <utility>

#include "join/steps.h"

namespace apujoin::join {

/// Wraps a per-item functor `fn(item, device) -> uint32_t work` into a
/// morsel kernel. The functor is a concrete type inlined into the batch
/// loop — only the one per-morsel std::function dispatch remains. The
/// production engines emit native batch kernels with column views captured
/// once per step; this adapter serves tests and ad-hoc steps.
template <typename Fn>
MorselKernel PerItemKernel(Fn fn) {
  return [fn = std::move(fn)](const Morsel& m, simcl::DeviceId dev,
                              uint32_t* lane_work) -> uint64_t {
    uint64_t work = 0;
    if (lane_work != nullptr) {
      for (uint64_t i = m.begin; i < m.end; ++i) {
        const uint32_t w = fn(i, dev);
        lane_work[i - m.begin] = w;
        work += w;
      }
    } else {
      for (uint64_t i = m.begin; i < m.end; ++i) work += fn(i, dev);
    }
    return work;
  };
}

}  // namespace apujoin::join

#endif  // APUJOIN_TESTS_PER_ITEM_KERNEL_H_
