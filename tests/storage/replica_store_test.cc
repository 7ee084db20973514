#include "storage/replica_store.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/brick_store.h"

namespace fabec::storage {
namespace {

constexpr std::size_t kBlockSize = 32;

Timestamp ts(std::int64_t t, ProcessId p = 0) { return Timestamp{t, p}; }

TEST(ReplicaStoreTest, InitialStateIsNilAtLowTS) {
  ReplicaStore store(kBlockSize);
  DiskStats io;
  EXPECT_EQ(store.ord_ts(), kLowTS);
  EXPECT_EQ(store.max_ts(), kLowTS);
  EXPECT_EQ(store.max_block_ts(), kLowTS);
  EXPECT_EQ(store.max_block(io), zero_block(kBlockSize));
  EXPECT_EQ(store.log_entries(), 1u);
  EXPECT_EQ(store.log_blocks(), 1u);
}

TEST(ReplicaStoreTest, OrdTsStoreIsNvram) {
  ReplicaStore store(kBlockSize);
  DiskStats io;
  store.store_ord_ts(ts(5), io);
  EXPECT_EQ(store.ord_ts(), ts(5));
  EXPECT_EQ(io.nvram_writes, 1u);
  EXPECT_EQ(io.disk_writes, 0u);
  EXPECT_EQ(io.disk_reads, 0u);
}

TEST(ReplicaStoreTest, AppendBlockAdvancesMaxTs) {
  ReplicaStore store(kBlockSize);
  DiskStats io;
  Rng rng(1);
  const Block b = random_block(rng, kBlockSize);
  store.append(ts(10), b, io);
  EXPECT_EQ(store.max_ts(), ts(10));
  EXPECT_EQ(store.max_block_ts(), ts(10));
  EXPECT_EQ(store.max_block(io), b);
  EXPECT_EQ(io.disk_writes, 1u);
}

TEST(ReplicaStoreTest, BottomEntryAdvancesTsWithoutBlock) {
  // A ⊥ entry (the Modify handler's line 96 case) advances max-ts but not
  // max-block, and costs NVRAM only.
  ReplicaStore store(kBlockSize);
  DiskStats io;
  Rng rng(2);
  const Block b = random_block(rng, kBlockSize);
  store.append(ts(10), b, io);
  const auto writes_before = io.disk_writes;
  store.append(ts(20), std::nullopt, io);
  EXPECT_EQ(store.max_ts(), ts(20));
  EXPECT_EQ(store.max_block_ts(), ts(10));
  EXPECT_EQ(store.max_block(io), b);
  EXPECT_EQ(io.disk_writes, writes_before);
  EXPECT_GE(io.nvram_writes, 1u);
}

TEST(ReplicaStoreTest, MaxBlockCountsOneDiskRead) {
  ReplicaStore store(kBlockSize);
  DiskStats io;
  store.max_block(io);
  EXPECT_EQ(io.disk_reads, 1u);
}

TEST(ReplicaStoreTest, MaxBelowFindsNewestStrictlyBelow) {
  ReplicaStore store(kBlockSize);
  DiskStats io;
  Rng rng(3);
  const Block b10 = random_block(rng, kBlockSize);
  const Block b20 = random_block(rng, kBlockSize);
  store.append(ts(10), b10, io);
  store.append(ts(20), b20, io);

  auto v = store.max_below(kHighTS, io);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->ts, ts(20));
  EXPECT_EQ(v->block, b20);

  v = store.max_below(ts(20), io);  // strictly below 20
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->ts, ts(10));
  EXPECT_EQ(v->block, b10);

  v = store.max_below(ts(10), io);  // skips to the initial nil entry
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->ts, kLowTS);
  EXPECT_EQ(v->block, zero_block(kBlockSize));

  EXPECT_FALSE(store.max_below(kLowTS, io).has_value());
}

TEST(ReplicaStoreTest, MaxBelowServesOldBlockUnderBottomVersion) {
  // A ⊥ marker certifies "my block is unchanged as of its timestamp": the
  // reply carries the ⊥ entry's (newer) version timestamp with the older
  // block value. Recovery relies on this to count unchanged data blocks
  // toward the latest stripe version after a block-level write.
  ReplicaStore store(kBlockSize);
  DiskStats io;
  Rng rng(4);
  const Block b = random_block(rng, kBlockSize);
  store.append(ts(10), b, io);
  store.append(ts(20), std::nullopt, io);
  const auto v = store.max_below(kHighTS, io);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->ts, ts(20));
  EXPECT_EQ(v->block, b);

  // Below the ⊥ marker, the same block is vouched for at its own version.
  const auto older = store.max_below(ts(20), io);
  ASSERT_TRUE(older.has_value());
  EXPECT_EQ(older->ts, ts(10));
  EXPECT_EQ(older->block, b);
}

TEST(ReplicaStoreTest, RottedBelowNamesTheVersionARotLeavesUnvouched) {
  ReplicaStore store(kBlockSize);
  DiskStats io;
  Rng rng(6);
  store.append(ts(10), random_block(rng, kBlockSize), io);
  EXPECT_FALSE(store.rotted_below(kHighTS).has_value());  // intact
  store.append(ts(20), std::nullopt, io);
  store.rot_newest_block(/*seed=*/1);
  // The ⊥ marker at 20 vouches through the rotted block at 10.
  EXPECT_FALSE(store.max_below(kHighTS, io).has_value());
  EXPECT_EQ(store.rotted_below(kHighTS), ts(20));
  EXPECT_EQ(store.rotted_below(ts(20)), ts(10));
  // Below the rot, the initial block is intact again.
  EXPECT_FALSE(store.rotted_below(ts(10)).has_value());
}

TEST(ReplicaStoreTest, GcKeepsEntriesAtOrAboveBound) {
  ReplicaStore store(kBlockSize);
  DiskStats io;
  Rng rng(5);
  for (std::int64_t t : {10, 20, 30, 40})
    store.append(ts(t), random_block(rng, kBlockSize), io);
  store.gc_below(ts(30));
  // Entries at 30 and 40 kept; the newest below (20) kept as the fallback;
  // 10 and the initial nil entry dropped.
  EXPECT_EQ(store.log_entries(), 3u);
  EXPECT_EQ(store.max_ts(), ts(40));
  auto v = store.max_below(ts(30), io);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->ts, ts(20));
}

TEST(ReplicaStoreTest, GcRetainsNewestBlockWhenAllBelowBound) {
  // A replica that missed the complete write must keep serving its newest
  // block after GC.
  ReplicaStore store(kBlockSize);
  DiskStats io;
  Rng rng(6);
  const Block b = random_block(rng, kBlockSize);
  store.append(ts(10), b, io);
  store.gc_below(ts(100));
  EXPECT_EQ(store.log_entries(), 1u);
  EXPECT_EQ(store.max_ts(), ts(10));
  EXPECT_EQ(store.max_block(io), b);
}

TEST(ReplicaStoreTest, GcRetainsNewestBottomAndNewestBlockSeparately) {
  // Newest entry overall is a ⊥ marker; newest block is older. Both must
  // survive so max-ts and max-block stay correct.
  ReplicaStore store(kBlockSize);
  DiskStats io;
  Rng rng(7);
  const Block b = random_block(rng, kBlockSize);
  store.append(ts(10), b, io);
  store.append(ts(20), std::nullopt, io);
  store.gc_below(ts(100));
  EXPECT_EQ(store.log_entries(), 2u);
  EXPECT_EQ(store.max_ts(), ts(20));
  EXPECT_EQ(store.max_block_ts(), ts(10));
  EXPECT_EQ(store.max_block(io), b);
}

TEST(ReplicaStoreTest, GcIsIdempotent) {
  ReplicaStore store(kBlockSize);
  DiskStats io;
  Rng rng(8);
  for (std::int64_t t : {10, 20, 30})
    store.append(ts(t), random_block(rng, kBlockSize), io);
  store.gc_below(ts(30));
  const auto entries = store.log_entries();
  store.gc_below(ts(30));
  EXPECT_EQ(store.log_entries(), entries);
}

TEST(ReplicaStoreTest, LogBlocksCountsOnlyRealBlocks) {
  ReplicaStore store(kBlockSize);
  DiskStats io;
  Rng rng(9);
  store.append(ts(10), random_block(rng, kBlockSize), io);
  store.append(ts(20), std::nullopt, io);
  store.append(ts(30), random_block(rng, kBlockSize), io);
  EXPECT_EQ(store.log_entries(), 4u);  // incl. initial nil
  EXPECT_EQ(store.log_blocks(), 3u);   // nil + two appended blocks
}

TEST(BrickStoreTest, LazyReplicaCreation) {
  BrickStore brick(kBlockSize);
  EXPECT_FALSE(brick.has_replica(7));
  EXPECT_EQ(brick.stripes_stored(), 0u);
  ReplicaStore& r = brick.replica(7);
  EXPECT_TRUE(brick.has_replica(7));
  EXPECT_EQ(brick.stripes_stored(), 1u);
  EXPECT_EQ(&r, &brick.replica(7));  // stable reference
}

TEST(BrickStoreTest, AggregatesAcrossStripes) {
  BrickStore brick(kBlockSize);
  Rng rng(10);
  brick.replica(1).append(ts(10), random_block(rng, kBlockSize), brick.io());
  brick.replica(2).append(ts(10), std::nullopt, brick.io());
  EXPECT_EQ(brick.total_log_entries(), 4u);  // 2 initial + 2 appended
  EXPECT_EQ(brick.total_log_blocks(), 3u);
  EXPECT_EQ(brick.io().disk_writes, 1u);
  brick.reset_io();
  EXPECT_EQ(brick.io().disk_writes, 0u);
}

}  // namespace
}  // namespace fabec::storage
