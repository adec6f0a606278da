#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "alloc/arena.h"
#include "alloc/basic_allocator.h"
#include "alloc/block_allocator.h"

namespace apujoin::alloc {
namespace {

using simcl::DeviceId;

TEST(ArenaTest, ReservesContiguousRanges) {
  Arena arena(100, 8);
  EXPECT_EQ(arena.Reserve(10), 0);
  EXPECT_EQ(arena.Reserve(5), 10);
  EXPECT_EQ(arena.used(), 15u);
}

TEST(ArenaTest, ExhaustionRollsBack) {
  Arena arena(10, 8);
  EXPECT_EQ(arena.Reserve(8), 0);
  EXPECT_EQ(arena.Reserve(5), -1);  // would overflow
  EXPECT_EQ(arena.Reserve(2), 8);   // rollback left room
}

TEST(ArenaTest, ResetRestoresCapacity) {
  Arena arena(10, 8);
  arena.Reserve(10);
  arena.Reset();
  EXPECT_EQ(arena.Reserve(10), 0);
}

TEST(ArenaTest, ConcurrentReservationsDisjoint) {
  Arena arena(64 * 1000, 8);
  std::vector<std::thread> threads;
  std::vector<std::vector<int64_t>> starts(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&arena, &starts, t]() {
      for (int i = 0; i < 1000; ++i) {
        starts[t].push_back(arena.Reserve(8));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<int64_t> all;
  for (const auto& v : starts) {
    for (int64_t s : v) {
      ASSERT_GE(s, 0);
      EXPECT_TRUE(all.insert(s).second) << "overlapping reservation";
    }
  }
}

TEST(BasicAllocatorTest, OneGlobalAtomicPerRequest) {
  Arena arena(1000, 8);
  BasicAllocator alloc(&arena);
  for (int i = 0; i < 10; ++i) {
    EXPECT_GE(alloc.Allocate(1, DeviceId::kGpu, i), 0);
  }
  const AllocCounts c = alloc.TakeCounts();
  EXPECT_EQ(c.global_atomics[1], 10u);
  EXPECT_EQ(c.local_atomics[1], 0u);
  EXPECT_EQ(c.requests[1], 10u);
}

TEST(BasicAllocatorTest, TakeCountsResets) {
  Arena arena(1000, 8);
  BasicAllocator alloc(&arena);
  alloc.Allocate(1, DeviceId::kCpu, 0);
  alloc.TakeCounts();
  const AllocCounts c = alloc.TakeCounts();
  EXPECT_EQ(c.global_atomics[0], 0u);
}

TEST(BlockAllocatorTest, GlobalAtomicOnlyOnRefill) {
  Arena arena(4096, 8);               // 8-byte elements
  BlockAllocator alloc(&arena, 256);  // 32 elements per block
  for (int i = 0; i < 64; ++i) {
    EXPECT_GE(alloc.Allocate(1, DeviceId::kGpu, /*workgroup=*/5), 0);
  }
  const AllocCounts c = alloc.TakeCounts();
  EXPECT_EQ(c.global_atomics[1], 2u);  // 64 allocations / 32 per block
  EXPECT_EQ(c.local_atomics[1], 64u);
  EXPECT_EQ(c.requests[1], 64u);
}

TEST(BlockAllocatorTest, DistinctWorkgroupsUseDistinctBlocks) {
  Arena arena(4096, 8);
  BlockAllocator alloc(&arena, 256);
  const int64_t a = alloc.Allocate(1, DeviceId::kGpu, 1);
  const int64_t b = alloc.Allocate(1, DeviceId::kGpu, 2);
  EXPECT_NE(a / 32, b / 32);  // different blocks
}

TEST(BlockAllocatorTest, DevicesDoNotShareBlocks) {
  Arena arena(4096, 8);
  BlockAllocator alloc(&arena, 256);
  const int64_t a = alloc.Allocate(1, DeviceId::kCpu, 1);
  const int64_t b = alloc.Allocate(1, DeviceId::kGpu, 1);
  EXPECT_NE(a / 32, b / 32);
}

TEST(BlockAllocatorTest, OversizedRequestServedDirectly) {
  Arena arena(4096, 8);
  BlockAllocator alloc(&arena, 64);  // 8 elements per block
  const int64_t idx = alloc.Allocate(100, DeviceId::kCpu, 0);
  EXPECT_GE(idx, 0);
  const AllocCounts c = alloc.TakeCounts();
  EXPECT_EQ(c.global_atomics[0], 1u);
}

TEST(BlockAllocatorTest, ExhaustionReported) {
  Arena arena(16, 8);
  BlockAllocator alloc(&arena, 64);
  int64_t last = 0;
  int ok = 0;
  for (int i = 0; i < 10 && last >= 0; ++i) {
    last = alloc.Allocate(8, DeviceId::kCpu, i);
    if (last >= 0) ++ok;
  }
  EXPECT_EQ(ok, 2);  // 16 elements = two blocks of 8
  EXPECT_EQ(alloc.TakeCounts().failed, 1u);
}

TEST(BlockAllocatorTest, FewerGlobalAtomicsThanBasic) {
  // The whole point of the optimized allocator (Figures 11/12).
  Arena a1(1 << 16, 8), a2(1 << 16, 8);
  BasicAllocator basic(&a1);
  BlockAllocator block(&a2, 2048);
  for (int i = 0; i < 10000; ++i) {
    basic.Allocate(1, DeviceId::kGpu, i % 64);
    block.Allocate(1, DeviceId::kGpu, i % 64);
  }
  EXPECT_LT(block.TakeCounts().global_atomics[1],
            basic.TakeCounts().global_atomics[1] / 10);
}

// ---------------------------------------------------------------------------
// Allocation runs: a run must hand out exactly what per-call Allocate(1)
// would, and account exactly the same op counts.
// ---------------------------------------------------------------------------

struct Request {
  DeviceId dev;
  uint32_t workgroup;
};

/// A request script that interleaves devices and work groups: runs of
/// consecutive requests per (device, work group), including work groups
/// wg and wg + 1024 that share one cache slot.
std::vector<Request> InterleavedScript() {
  std::vector<Request> script;
  const struct {
    DeviceId dev;
    uint32_t wg;
    int n;
  } segments[] = {
      {DeviceId::kCpu, 5, 10},   {DeviceId::kGpu, 5, 7},
      {DeviceId::kCpu, 1029, 7}, {DeviceId::kCpu, 5, 3},
      {DeviceId::kGpu, 6, 40},   {DeviceId::kCpu, 6, 1},
      {DeviceId::kGpu, 1030, 9}, {DeviceId::kCpu, 2053, 33},
      {DeviceId::kGpu, 5, 70},   {DeviceId::kCpu, 5, 12},
  };
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& seg : segments) {
      for (int k = 0; k < seg.n; ++k) script.push_back({seg.dev, seg.wg});
    }
  }
  return script;
}

void ExpectSameCounts(const AllocCounts& a, const AllocCounts& b) {
  for (int d = 0; d < simcl::kNumDevices; ++d) {
    EXPECT_EQ(a.global_atomics[d], b.global_atomics[d]) << "device " << d;
    EXPECT_EQ(a.local_atomics[d], b.local_atomics[d]) << "device " << d;
    EXPECT_EQ(a.requests[d], b.requests[d]) << "device " << d;
  }
  EXPECT_EQ(a.failed, b.failed);
}

class AllocRunParityTest
    : public ::testing::TestWithParam<std::tuple<AllocatorKind, uint32_t>> {};

TEST_P(AllocRunParityTest, MatchesPerCallAllocate) {
  const auto [kind, block_bytes] = GetParam();
  const std::vector<Request> script = InterleavedScript();
  // Roomy arena, and one that runs dry part-way through the script.
  for (const uint64_t capacity : {uint64_t{1} << 16, uint64_t{300}}) {
    SCOPED_TRACE(capacity);
    Arena ref_arena(capacity, 8);
    const auto ref = MakeAllocator(&ref_arena, kind, block_bytes);
    std::vector<int64_t> want;
    for (const Request& r : script) {
      want.push_back(ref->Allocate(1, r.dev, r.workgroup));
    }

    Arena arena(capacity, 8);
    const auto alloc = MakeAllocator(&arena, kind, block_bytes);
    std::vector<int64_t> got;
    {
      // One run per device, both open at once and moved across work
      // groups — the way a kernel's CPU and GPU morsels hold them.
      AllocRun cpu(alloc.get(), DeviceId::kCpu);
      AllocRun gpu(alloc.get(), DeviceId::kGpu);
      for (size_t k = 0; k < script.size(); ++k) {
        AllocRun& run = script[k].dev == DeviceId::kCpu ? cpu : gpu;
        run.SetWorkgroup(script[k].workgroup);
        got.push_back(run.Allocate());
        // Close part-way: a closed run reopens on its next allocation.
        if (k == script.size() / 2) cpu.Close();
      }
    }
    EXPECT_EQ(got, want);
    const AllocCounts want_counts = ref->TakeCounts();
    ExpectSameCounts(alloc->TakeCounts(), want_counts);
    if (capacity == 300) {
      EXPECT_GT(want_counts.failed, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndBlockSizes, AllocRunParityTest,
    ::testing::Values(std::make_tuple(AllocatorKind::kBasic, 2048u),
                      std::make_tuple(AllocatorKind::kOptimized, 8u),
                      std::make_tuple(AllocatorKind::kOptimized, 64u),
                      std::make_tuple(AllocatorKind::kOptimized, 256u),
                      std::make_tuple(AllocatorKind::kOptimized, 2048u)));

TEST(AllocRunTest, TalliesFlushOnlyOnClose) {
  Arena arena(4096, 8);
  BlockAllocator alloc(&arena, 256);  // 32 elements per block
  AllocRun run(&alloc, DeviceId::kGpu, 3);
  for (int i = 0; i < 40; ++i) ASSERT_GE(run.Allocate(), 0);
  EXPECT_EQ(run.tally().requests, 40u);
  EXPECT_EQ(alloc.TakeCounts().requests[1], 0u);  // nothing flushed yet
  run.Close();
  const AllocCounts c = alloc.TakeCounts();
  EXPECT_EQ(c.requests[1], 40u);
  EXPECT_EQ(c.global_atomics[1], 2u);
  EXPECT_EQ(c.local_atomics[1], 40u);
  EXPECT_EQ(run.tally().requests, 0u);
}

TEST(AllocRunTest, ConcurrentRunsOnSharedSlotStayDisjointAndExact) {
  // Work groups 7 and 7 + 1024 share one cache slot; runs on it from four
  // threads serialize on the slot and hand its block over intact, so the
  // refill count is ceil(requests / block) whatever the interleaving.
  constexpr int kThreads = 4;
  constexpr int kRuns = 200;
  constexpr int kPerRun = 37;
  Arena arena(1 << 16, 8);
  BlockAllocator alloc(&arena, 256);  // 32 elements per block
  std::vector<std::vector<int64_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&alloc, &got, t]() {
      for (int r = 0; r < kRuns; ++r) {
        AllocRun run(&alloc, DeviceId::kCpu, 7 + 1024 * ((t + r) % 2));
        for (int k = 0; k < kPerRun; ++k) got[t].push_back(run.Allocate());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<int64_t> all;
  for (const auto& v : got) {
    for (int64_t idx : v) {
      ASSERT_GE(idx, 0);
      EXPECT_TRUE(all.insert(idx).second) << "index handed out twice";
    }
  }
  const uint64_t total = uint64_t{kThreads} * kRuns * kPerRun;
  const AllocCounts c = alloc.TakeCounts();
  EXPECT_EQ(c.requests[0], total);
  EXPECT_EQ(c.local_atomics[0], total);
  EXPECT_EQ(c.global_atomics[0], (total + 31) / 32);
  EXPECT_EQ(c.failed, 0u);
}

}  // namespace
}  // namespace apujoin::alloc
