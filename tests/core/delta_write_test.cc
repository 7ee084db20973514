// §5.2's bandwidth-optimized block write is write_blocks over one index:
// the MultiModify round ships the new block to p_j and one coded delta to
// each parity process — identical semantics to write_block's (old, new)
// Modify at (k+2)B of payload instead of (2n+1)B.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"

namespace fabec::core {
namespace {

constexpr std::uint32_t kN = 8;
constexpr std::uint32_t kM = 5;
constexpr std::uint32_t kK = kN - kM;
constexpr std::size_t kB = 1024;

ClusterConfig make_config() {
  ClusterConfig config;
  config.n = kN;
  config.m = kM;
  config.block_size = kB;
  config.coordinator.auto_gc = false;
  return config;
}

std::vector<Block> random_stripe(Rng& rng) {
  std::vector<Block> stripe;
  for (std::uint32_t i = 0; i < kM; ++i) stripe.push_back(random_block(rng, kB));
  return stripe;
}

/// write_blocks({j}): the delta form of a single-block write.
bool delta_write(Cluster& cluster, ProcessId coord, BlockIndex j, Block b) {
  return cluster.write_blocks(coord, 0, {j}, {std::move(b)});
}

TEST(DeltaWriteTest, RoundTripMatchesBaselinePath) {
  // Run the same operation sequence through both paths; all reads agree.
  for (bool delta : {false, true}) {
    Cluster cluster(make_config(), /*seed=*/1);
    Rng rng(1);
    auto stripe = random_stripe(rng);
    ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
    for (BlockIndex j = 0; j < kM; ++j) {
      stripe[j] = random_block(rng, kB);
      const bool ok = delta ? delta_write(cluster, j % kN, j, stripe[j])
                            : cluster.write_block(j % kN, 0, j, stripe[j]);
      ASSERT_TRUE(ok) << "delta=" << delta << " j=" << j;
    }
    EXPECT_EQ(cluster.read_stripe(1, 0), stripe) << "delta=" << delta;
  }
}

TEST(DeltaWriteTest, PayloadIsKPlus2Blocks) {
  Cluster cluster(make_config(), /*seed=*/2);
  Rng rng(2);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  cluster.network().reset_stats();
  ASSERT_TRUE(delta_write(cluster, 0, 2, random_block(rng, kB)));
  // Order&Read reply from p_j: B. MultiModify: B to p_j + kB to parity.
  EXPECT_EQ(cluster.network().stats().bytes_sent / kB, kK + 2);
  // Message count and latency are unchanged — only payload shrinks.
  EXPECT_EQ(cluster.network().stats().messages_sent, 4 * kN);
}

TEST(DeltaWriteTest, BaselinePayloadIs2NPlus1Blocks) {
  Cluster cluster(make_config(), /*seed=*/3);
  Rng rng(3);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  cluster.network().reset_stats();
  ASSERT_TRUE(cluster.write_block(0, 0, 2, random_block(rng, kB)));
  EXPECT_EQ(cluster.network().stats().bytes_sent / kB, 2 * kN + 1);
}

TEST(DeltaWriteTest, DiskCostsUnchanged) {
  Cluster cluster(make_config(), /*seed=*/4);
  Rng rng(4);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  cluster.reset_io_stats();
  ASSERT_TRUE(delta_write(cluster, 0, 2, random_block(rng, kB)));
  EXPECT_EQ(cluster.total_io().disk_reads, kK + 1);
  EXPECT_EQ(cluster.total_io().disk_writes, kK + 1);
}

TEST(DeltaWriteTest, StatsCountWritesByBlockCountNotEntryPoint) {
  // A write is counted by how many blocks it covers: a one-index
  // write_blocks is a block write like write_block, so fast-write fractions
  // (fast_block_write_hits / block_writes) mean the same whichever entry
  // point a front end uses.
  Cluster cluster(make_config(), /*seed=*/8);
  Rng rng(8);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  ASSERT_TRUE(delta_write(cluster, 0, 2, random_block(rng, kB)));
  CoordinatorStats stats = cluster.total_coordinator_stats();
  EXPECT_EQ(stats.block_writes, 1u);
  EXPECT_EQ(stats.multi_block_writes, 0u);
  EXPECT_EQ(stats.fast_block_write_hits, 1u);

  ASSERT_TRUE(cluster.write_block(1, 0, 3, random_block(rng, kB)));
  ASSERT_TRUE(cluster.write_blocks(
      2, 0, {0, 4}, {random_block(rng, kB), random_block(rng, kB)}));
  stats = cluster.total_coordinator_stats();
  EXPECT_EQ(stats.block_writes, 2u);
  EXPECT_EQ(stats.multi_block_writes, 1u);
  EXPECT_EQ(stats.fast_block_write_hits, 3u);
}

TEST(DeltaWriteTest, SequentialDeltaWritesKeepParityConsistent) {
  // The acid test for the coded deltas: after many delta writes,
  // reconstructing from parity-only subsets must still work.
  Cluster cluster(make_config(), /*seed=*/5);
  Rng rng(5);
  auto stripe = random_stripe(rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  for (int round = 0; round < 10; ++round) {
    const auto j = static_cast<BlockIndex>(rng.next_below(kM));
    stripe[j] = random_block(rng, kB);
    ASSERT_TRUE(delta_write(cluster, round % kN, j, stripe[j]));
  }
  // Force decode through the parity blocks: crash one data brick and read
  // its block (reconstruction must use parity).
  cluster.crash(0);
  EXPECT_EQ(cluster.read_block(1, 0, 0), stripe[0]);
  EXPECT_EQ(cluster.read_stripe(2, 0), stripe);
}

TEST(DeltaWriteTest, PartialDeltaWriteIsResolvedByReads) {
  Cluster cluster(make_config(), /*seed=*/6);
  Rng rng(6);
  auto stripe = random_stripe(rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  const Block nb = random_block(rng, kB);
  cluster.coordinator(1).write_blocks(0, {3}, {nb}, [](auto) {});
  cluster.simulator().run_for(sim::kDefaultDelta);
  cluster.crash(1);
  cluster.simulator().run_until_idle();
  const auto seen = cluster.read_stripe(2, 0);
  ASSERT_TRUE(seen.has_value());
  auto with_new = stripe;
  with_new[3] = nb;
  EXPECT_TRUE(*seen == stripe || *seen == with_new);
  cluster.recover_brick(1);
  EXPECT_EQ(cluster.read_stripe(1, 0), *seen);
}

TEST(DeltaWriteTest, ReplicationDegenerateCase) {
  // m = 1: there are no "other data processes"; p_0 gets the block and the
  // copies get deltas which XOR straight in (coefficient 1).
  ClusterConfig config = make_config();
  config.n = 3;
  config.m = 1;
  Cluster cluster(config, /*seed=*/7);
  Rng rng(7);
  const Block a = random_block(rng, kB);
  const Block b = random_block(rng, kB);
  ASSERT_TRUE(delta_write(cluster, 0, 0, a));
  ASSERT_TRUE(delta_write(cluster, 1, 0, b));
  EXPECT_EQ(cluster.read_block(2, 0, 0), b);
}

}  // namespace
}  // namespace fabec::core
