#include "probes.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "alloc/arena.h"
#include "alloc/block_allocator.h"
#include "join/reference_join.h"
#include "join/result_writer.h"
#include "perfbench.h"
#include "util/status.h"

namespace perfbench {

namespace {

using apujoin::simcl::DeviceId;

constexpr uint64_t kCallsPerThread = 1ull << 19;
constexpr int kReps = 5;
constexpr uint32_t kBlockBytes = 2048;  // the engines' default block size

/// Runs `body(thread_index)` on `threads` threads released together and
/// returns the mean per-thread nanoseconds per call.
template <typename Body>
double TimeContended(int threads, Body body) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<double> ns(static_cast<size_t>(threads), 0.0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
      }
      const auto t0 = Clock::now();
      body(t);
      ns[static_cast<size_t>(t)] =
          SecondsBetween(t0, Clock::now()) * 1e9 / kCallsPerThread;
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  double sum = 0.0;
  for (double v : ns) sum += v;
  return sum / threads;
}

}  // namespace

double AllocateNsPerCall(int threads) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const uint64_t slack = static_cast<uint64_t>(threads) * kBlockBytes;
    apujoin::alloc::Arena arena(threads * kCallsPerThread + slack, 8);
    apujoin::alloc::BlockAllocator allocator(&arena, kBlockBytes);
    std::atomic<uint64_t> failed{0};
    reps.push_back(TimeContended(threads, [&](int t) {
      uint64_t bad = 0;
      for (uint64_t i = 0; i < kCallsPerThread; ++i) {
        bad += allocator.Allocate(1, DeviceId::kCpu,
                                  static_cast<uint32_t>(t)) < 0;
      }
      failed.fetch_add(bad, std::memory_order_relaxed);
    }));
    APU_CHECK(failed.load() == 0 && "allocator probe ran out of arena");
  }
  return Median(reps);
}

double EmitNsPerCall(int threads) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const uint64_t slack = static_cast<uint64_t>(threads) * kBlockBytes;
    apujoin::join::ResultWriter writer(
        threads * kCallsPerThread + slack,
        apujoin::alloc::AllocatorKind::kOptimized, kBlockBytes);
    reps.push_back(TimeContended(threads, [&](int t) {
      for (uint64_t i = 0; i < kCallsPerThread; ++i) {
        writer.Emit(static_cast<int32_t>(i), t, DeviceId::kCpu,
                    static_cast<uint32_t>(t));
      }
    }));
    APU_CHECK(writer.count() == threads * kCallsPerThread &&
              writer.dropped() == 0 && "result-writer probe lost pairs");
  }
  return Median(reps);
}

double FloorMs(const apujoin::data::Relation& build,
               const apujoin::data::Relation& probe, uint64_t* matches) {
  std::vector<double> reps;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    *matches = apujoin::join::ReferenceMatchCount(build, probe);
    reps.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  }
  return Median(reps);
}

double CopyGbps(uint64_t bytes) {
  const size_t n = std::max<uint64_t>(bytes, 64ull << 20);
  std::vector<char> src(n, 1);
  std::vector<char> dst(n, 0);
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    src[static_cast<size_t>(r)] = static_cast<char>(r);
    const auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), n);
    reps.push_back(static_cast<double>(n) /
                   SecondsBetween(t0, Clock::now()) / 1e9);
  }
  APU_CHECK(dst[0] == src[0]);
  return Median(reps);
}

}  // namespace perfbench
