#include "alloc/allocator.h"

#include "alloc/basic_allocator.h"
#include "alloc/block_allocator.h"

namespace apujoin::alloc {

std::unique_ptr<Allocator> MakeAllocator(Arena* arena, AllocatorKind kind,
                                         uint32_t block_bytes) {
  if (kind == AllocatorKind::kBasic) {
    return std::make_unique<BasicAllocator>(arena);
  }
  return std::make_unique<BlockAllocator>(arena, block_bytes);
}

}  // namespace apujoin::alloc
