// Aggregation runs: folding tuples through join::AggRun (a morsel-private
// combiner over the shared group table) must give exactly the group rows
// and the per-tuple probe counts of a plain per-tuple fold into the shared
// table, for every aggregate — across combiner evictions, a hot key, SUM
// wrap-around, and runs racing on one table from several threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "join/groupby_engine.h"
#include "join/hash_table.h"
#include "join/result_writer.h"
#include "join/steps.h"
#include "plan/plan.h"
#include "util/murmur_hash.h"

namespace apujoin::join {
namespace {

using plan::AggFn;

struct Tuple {
  int32_t key;
  int64_t val;
};

/// The per-tuple fold the runs replace: a linear-probing table of the same
/// capacity, updated once per tuple. Records each tuple's probe count.
struct ReferenceFold {
  ReferenceFold(uint32_t cap, AggFn agg)
      : mask(cap - 1),
        agg(agg),
        keys(cap, GroupByEngine::kEmptyKey),
        values(cap, agg == AggFn::kMin   ? std::numeric_limits<int64_t>::max()
                    : agg == AggFn::kMax ? std::numeric_limits<int64_t>::min()
                                         : 0),
        counts(cap, 0) {}

  uint32_t Fold(int32_t key, int64_t val) {
    uint32_t work = 1;
    uint32_t b = MurmurHash2x4(static_cast<uint32_t>(key)) & mask;
    while (keys[b] != key) {
      if (keys[b] == GroupByEngine::kEmptyKey) {
        keys[b] = key;
        break;
      }
      b = (b + 1) & mask;
      ++work;
    }
    ++counts[b];
    switch (agg) {
      case AggFn::kCount:
        break;
      case AggFn::kSum:  // wraps like the table's atomic fetch_add
        values[b] = static_cast<int64_t>(static_cast<uint64_t>(values[b]) +
                                         static_cast<uint64_t>(val));
        break;
      case AggFn::kMin:
        values[b] = std::min(values[b], val);
        break;
      case AggFn::kMax:
        values[b] = std::max(values[b], val);
        break;
    }
    return work;
  }

  std::vector<GroupRow> Rows() const {
    std::vector<GroupRow> rows;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (counts[i] == 0) continue;
      rows.push_back({keys[i],
                      agg == AggFn::kCount ? static_cast<int64_t>(counts[i])
                                           : values[i],
                      counts[i]});
    }
    std::sort(rows.begin(), rows.end(),
              [](const GroupRow& a, const GroupRow& b) { return a.key < b.key; });
    return rows;
  }

  uint32_t mask;
  AggFn agg;
  std::vector<int32_t> keys;
  std::vector<int64_t> values;
  std::vector<uint64_t> counts;
};

/// The fused-mode table capacity for `max_distinct` keys (PrepareFused).
uint32_t FusedCap(uint64_t max_distinct) {
  return NextPow2(std::max<uint64_t>(16, max_distinct * 2));
}

void ExpectSameRows(const std::vector<GroupRow>& got,
                    const std::vector<GroupRow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "row " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "row " << i;
    EXPECT_EQ(got[i].count, want[i].count) << "row " << i;
  }
}

const AggFn kAggs[] = {AggFn::kCount, AggFn::kSum, AggFn::kMin, AggFn::kMax};

/// Folds `tuples` through one run per `morsel` tuples and checks rows and
/// every Fold's probe count against the per-tuple reference.
void CheckRuns(const std::vector<Tuple>& tuples, uint64_t max_distinct,
               size_t morsel) {
  for (AggFn agg : kAggs) {
    SCOPED_TRACE(plan::AggFnName(agg));
    GroupByEngine eng(agg);
    ASSERT_TRUE(eng.PrepareFused(max_distinct).ok());
    ReferenceFold ref(FusedCap(max_distinct), agg);
    for (size_t b = 0; b < tuples.size(); b += morsel) {
      AggRun run(&eng);
      for (size_t i = b; i < std::min(tuples.size(), b + morsel); ++i) {
        const uint32_t want = ref.Fold(tuples[i].key, tuples[i].val);
        ASSERT_EQ(run.Fold(tuples[i].key, tuples[i].val), want)
            << "tuple " << i;
      }
    }
    ExpectSameRows(eng.Materialize(), ref.Rows());
    EXPECT_EQ(eng.total_count(), tuples.size());
  }
}

std::vector<Tuple> RandomTuples(size_t n, int32_t distinct, double hot_frac,
                                uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> key(0, distinct - 1);
  std::uniform_int_distribution<int64_t> val(-1000000, 1000000);
  std::bernoulli_distribution hot(hot_frac);
  std::vector<Tuple> tuples(n);
  for (Tuple& t : tuples) {
    t.key = hot(rng) ? 7 : key(rng) * 3 - distinct;  // negatives too
    t.val = val(rng);
  }
  return tuples;
}

TEST(AggRunTest, ManyDistinctKeysEvictCombinerEntries) {
  // Thousands of distinct keys per run: far more than the combiner holds.
  CheckRuns(RandomTuples(20000, 5000, 0.0, 1), 5000, 4096);
  CheckRuns(RandomTuples(20000, 5000, 0.0, 2), 5000, 256);
}

TEST(AggRunTest, OneHotKey) {
  CheckRuns(RandomTuples(20000, 2000, 0.25, 3), 2000, 256);
  std::vector<Tuple> all_hot(5000);
  for (size_t i = 0; i < all_hot.size(); ++i) {
    all_hot[i] = {42, static_cast<int64_t>(i % 97) - 50};
  }
  CheckRuns(all_hot, 1, 256);
}

TEST(AggRunTest, SumWrapsLikeTheAtomicAdd) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  std::vector<Tuple> tuples;
  for (int i = 0; i < 3000; ++i) {
    tuples.push_back({i % 5, i % 2 == 0 ? kMax - i : kMin + i});
    tuples.push_back({1, kMax});
  }
  CheckRuns(tuples, 5, 256);
}

TEST(AggRunTest, CollidingKeysShareOneProbeChain) {
  // Keys whose home slot is the same slot of a 16-slot table: every claim
  // walks the chain the earlier keys built.
  std::vector<int32_t> chain;
  for (int32_t k = 0; chain.size() < 6; ++k) {
    if ((MurmurHash2x4(static_cast<uint32_t>(k)) & 15u) == 3u) {
      chain.push_back(k);
    }
  }
  std::vector<Tuple> tuples;
  for (int i = 0; i < 4000; ++i) {
    tuples.push_back({chain[(i * 7) % chain.size()], i});
  }
  CheckRuns(tuples, 8, 256);
}

TEST(AggRunTest, GroupByStepWorkMatchesPerTupleFold) {
  // g1 over a keyed result buffer: group rows and each lane's work units
  // equal the per-tuple fold's probe counts (1 for an unclaimed slot).
  const std::vector<Tuple> tuples = RandomTuples(6000, 1500, 0.25, 4);
  for (AggFn agg : kAggs) {
    SCOPED_TRACE(plan::AggFnName(agg));
    ResultWriter writer(tuples.size() + 4096, alloc::AllocatorKind::kOptimized,
                        2048);
    writer.CaptureKeys();
    for (size_t i = 0; i < tuples.size(); ++i) {
      ASSERT_TRUE(writer.Emit(tuples[i].key, static_cast<int32_t>(i),
                              static_cast<int32_t>(tuples[i].val),
                              simcl::DeviceId::kCpu, 0));
    }
    GroupByEngine eng(&writer, agg);
    ASSERT_TRUE(eng.Prepare().ok());
    const std::vector<StepDef> steps = eng.Steps();
    ASSERT_EQ(steps.size(), 1u);
    const uint64_t n = writer.used_slots();
    std::vector<uint32_t> work(n, 0);
    uint64_t total = 0;
    for (uint64_t b = 0; b < n; b += 256) {
      const Morsel m{b, std::min<uint64_t>(n, b + 256)};
      total += steps[0].run(m, simcl::DeviceId::kCpu, work.data() + b);
    }

    ReferenceFold ref(FusedCap(writer.count()), agg);
    uint64_t want_total = 0;
    for (uint64_t i = 0; i < n; ++i) {
      uint32_t w = 1;
      if (writer.build_rid_data()[i] >= 0) {
        w = ref.Fold(writer.key_data()[i], writer.probe_rid_data()[i]);
      }
      EXPECT_EQ(work[i], w) << "slot " << i;
      want_total += w;
    }
    EXPECT_EQ(total, want_total);
    ExpectSameRows(eng.Materialize(), ref.Rows());
  }
}

TEST(AggRunTest, RunsRaceOnOneTableFromFourThreads) {
  // A hot key plus 15 keys with one home slot (a 32-slot table), folded by
  // four threads each opening a run per 256 tuples: claims race along one
  // probe chain, combiner entries evict each other, and the rows match the
  // sequential reference.
  std::vector<int32_t> keys = {7};
  for (int32_t k = 100; keys.size() < 16; ++k) {
    if ((MurmurHash2x4(static_cast<uint32_t>(k)) & 31u) == 5u) {
      keys.push_back(k);
    }
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<Tuple>> per_thread(kThreads);
  std::mt19937_64 rng(5);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 20000; ++i) {
      const bool hot = (rng() & 3u) == 0;
      const int32_t key = hot ? keys[0] : keys[1 + rng() % (keys.size() - 1)];
      per_thread[t].push_back({key, static_cast<int64_t>(rng() >> 1)});
    }
  }
  for (AggFn agg : kAggs) {
    SCOPED_TRACE(plan::AggFnName(agg));
    GroupByEngine eng(agg);
    ASSERT_TRUE(eng.PrepareFused(16).ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&eng, &tuples = per_thread[t]] {
        for (size_t b = 0; b < tuples.size(); b += 256) {
          AggRun run(&eng);
          for (size_t i = b; i < std::min(tuples.size(), b + 256); ++i) {
            run.Fold(tuples[i].key, tuples[i].val);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();

    ReferenceFold ref(FusedCap(16), agg);
    for (const auto& tuples : per_thread) {
      for (const Tuple& tp : tuples) ref.Fold(tp.key, tp.val);
    }
    ExpectSameRows(eng.Materialize(), ref.Rows());
    EXPECT_EQ(eng.num_groups(), keys.size());
  }
}

}  // namespace
}  // namespace apujoin::join
