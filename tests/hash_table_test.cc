#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "join/hash_table.h"
#include "util/murmur_hash.h"

namespace apujoin::join {
namespace {

using simcl::DeviceId;

class HashTableTest : public ::testing::Test {
 protected:
  HashTableTest()
      : pools_(1024, 4096, alloc::AllocatorKind::kOptimized, 256),
        table_(64, &pools_) {}

  uint32_t BucketFor(int32_t key) {
    return table_.BucketOf(MurmurHash2x4(static_cast<uint32_t>(key)));
  }

  // Full insert path b2..b4 for one tuple.
  void Insert(int32_t key, int32_t rid) {
    const uint32_t b = BucketFor(key);
    uint32_t work = 0;
    const int32_t node = table_.FindOrAddKey(b, key, DeviceId::kCpu, 0, &work);
    ASSERT_NE(node, kNil);
    ASSERT_TRUE(table_.InsertRid(node, rid, DeviceId::kCpu, 0));
    table_.BumpCount(b);
  }

  std::vector<int32_t> Lookup(int32_t key) {
    const uint32_t b = BucketFor(key);
    uint32_t work = 0;
    const int32_t node = table_.FindKey(b, key, &work);
    std::vector<int32_t> rids;
    if (node != kNil) {
      table_.ForEachRid(node, [&rids](int32_t r) { rids.push_back(r); });
    }
    return rids;
  }

  NodePools pools_;
  HashTable table_;
};

TEST_F(HashTableTest, InsertThenFind) {
  Insert(42, 7);
  const auto rids = Lookup(42);
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], 7);
}

TEST_F(HashTableTest, MissingKeyNotFound) {
  Insert(42, 7);
  EXPECT_TRUE(Lookup(43).empty());
}

TEST_F(HashTableTest, DuplicateKeysShareKeyNode) {
  Insert(5, 1);
  Insert(5, 2);
  Insert(5, 3);
  EXPECT_EQ(table_.keys_inserted(), 1u);
  EXPECT_EQ(table_.rids_inserted(), 3u);
  const auto rids = Lookup(5);
  EXPECT_EQ(std::set<int32_t>(rids.begin(), rids.end()),
            (std::set<int32_t>{1, 2, 3}));
}

TEST_F(HashTableTest, ManyKeysAllRetrievable) {
  for (int32_t k = 0; k < 500; ++k) Insert(k * 2 + 1, k);
  for (int32_t k = 0; k < 500; ++k) {
    const auto rids = Lookup(k * 2 + 1);
    ASSERT_EQ(rids.size(), 1u) << "key " << k * 2 + 1;
    EXPECT_EQ(rids[0], k);
  }
}

TEST_F(HashTableTest, WorkCountsListTraversal) {
  // Force collisions: with 64 buckets, 500 keys chain several deep.
  for (int32_t k = 0; k < 500; ++k) Insert(k * 2 + 1, k);
  uint64_t total_work = 0;
  for (int32_t k = 0; k < 500; ++k) {
    uint32_t work = 0;
    table_.FindKey(BucketFor(k * 2 + 1), k * 2 + 1, &work);
    EXPECT_GE(work, 1u);
    total_work += work;
  }
  EXPECT_GT(total_work, 500u);  // some chains are longer than one
}

TEST_F(HashTableTest, CountTracksTuples) {
  for (int32_t k = 0; k < 100; ++k) Insert(k * 2 + 1, k);
  EXPECT_EQ(table_.TotalCount(), 100u);
  int32_t count = -1;
  table_.VisitHeader(BucketFor(1), &count);
  EXPECT_GE(count, 1);
}

TEST_F(HashTableTest, KeyArenaExhaustionReturnsNil) {
  NodePools tiny(4, 16, alloc::AllocatorKind::kBasic, 64);
  HashTable t(16, &tiny);
  int inserted = 0;
  for (int32_t k = 0; k < 10; ++k) {
    uint32_t work = 0;
    const uint32_t b = t.BucketOf(MurmurHash2x4(k * 2 + 1));
    if (t.FindOrAddKey(b, k * 2 + 1, DeviceId::kCpu, 0, &work) != kNil) {
      ++inserted;
    }
  }
  EXPECT_EQ(inserted, 4);
}

TEST_F(HashTableTest, MergeEqualBucketTables) {
  HashTable other(64, &pools_);
  // Fill `other`, then merge into the (empty) main table.
  for (int32_t k = 0; k < 50; ++k) {
    const uint32_t b = other.BucketOf(MurmurHash2x4(k * 2 + 1));
    uint32_t work = 0;
    const int32_t node =
        other.FindOrAddKey(b, k * 2 + 1, DeviceId::kGpu, 0, &work);
    ASSERT_NE(node, kNil);
    ASSERT_TRUE(other.InsertRid(node, k, DeviceId::kGpu, 0));
  }
  const auto [keys, rids] =
      table_.MergeFrom(other, /*shift=*/0, DeviceId::kCpu);
  EXPECT_EQ(keys, 50u);
  EXPECT_EQ(rids, 50u);
  for (int32_t k = 0; k < 50; ++k) {
    EXPECT_EQ(Lookup(k * 2 + 1).size(), 1u);
  }
}

TEST_F(HashTableTest, MergeDifferentBucketCounts) {
  HashTable other(16, &pools_);  // different size: keys re-hashed on merge
  for (int32_t k = 0; k < 30; ++k) {
    const uint32_t b = other.BucketOf(MurmurHash2x4(k * 2 + 1));
    uint32_t work = 0;
    const int32_t node =
        other.FindOrAddKey(b, k * 2 + 1, DeviceId::kGpu, 0, &work);
    ASSERT_TRUE(other.InsertRid(node, 100 + k, DeviceId::kGpu, 0));
  }
  table_.MergeFrom(other, /*shift=*/0, DeviceId::kCpu);
  for (int32_t k = 0; k < 30; ++k) {
    const auto rids = Lookup(k * 2 + 1);
    ASSERT_EQ(rids.size(), 1u);
    EXPECT_EQ(rids[0], 100 + k);
  }
}

TEST_F(HashTableTest, MergePreservesExistingEntries) {
  Insert(1, 10);
  HashTable other(64, &pools_);
  const uint32_t b = other.BucketOf(MurmurHash2x4(1));
  uint32_t work = 0;
  const int32_t node = other.FindOrAddKey(b, 1, DeviceId::kGpu, 0, &work);
  other.InsertRid(node, 20, DeviceId::kGpu, 0);
  table_.MergeFrom(other, /*shift=*/0, DeviceId::kCpu);
  EXPECT_EQ(table_.keys_inserted(), 1u);  // key 1 deduplicated
  EXPECT_EQ(Lookup(1).size(), 2u);
}

TEST_F(HashTableTest, WorkingSetGrowsWithContent) {
  const double before = table_.WorkingSetBytes();
  for (int32_t k = 0; k < 100; ++k) Insert(k * 2 + 1, k);
  EXPECT_GT(table_.WorkingSetBytes(), before);
}

TEST(HashTableCtor, RejectsInvalidBucketCounts) {
  NodePools pools(16, 16, alloc::AllocatorKind::kBasic, 64);
  // BucketOf masks with num_buckets - 1, so zero or a non-power-of-two
  // would silently misroute keys; the constructor must refuse instead.
  EXPECT_THROW(HashTable(0, &pools), std::invalid_argument);
  EXPECT_THROW(HashTable(3, &pools), std::invalid_argument);
  EXPECT_THROW(HashTable(100, &pools), std::invalid_argument);
  EXPECT_THROW(HashTable(65535, &pools), std::invalid_argument);
  EXPECT_NO_THROW(HashTable(1, &pools));
  EXPECT_NO_THROW(HashTable(65536, &pools));
}

TEST(NextPow2Test, Values) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1024), 1024u);
  EXPECT_EQ(NextPow2(1025), 2048u);
}

}  // namespace
}  // namespace apujoin::join
