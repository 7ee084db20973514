// Multi-block operations (footnote 2): several data blocks of one stripe
// read or written in a single operation with one version timestamp.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"

namespace fabec::core {
namespace {

constexpr std::uint32_t kN = 8;
constexpr std::uint32_t kM = 5;
constexpr std::uint32_t kK = kN - kM;
constexpr std::size_t kB = 256;

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

TEST(MultiBlockTest, WriteThenReadSubset) {
  Cluster cluster(make_config(), 1);
  Rng rng(1);
  auto stripe = random_stripe(rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));

  const std::vector<BlockIndex> js{1, 3, 4};
  std::vector<Block> new_blocks;
  for (BlockIndex j : js) {
    new_blocks.push_back(random_block(rng, kB));
    stripe[j] = new_blocks.back();
  }
  ASSERT_TRUE(cluster.write_blocks(2, 0, js, new_blocks));

  EXPECT_EQ(cluster.read_blocks(3, 0, js), new_blocks);
  EXPECT_EQ(cluster.read_stripe(4, 0), stripe);  // parity consistent
}

TEST(MultiBlockTest, WorksOnFreshStripe) {
  Cluster cluster(make_config(), 2);
  Rng rng(2);
  const std::vector<BlockIndex> js{0, 2};
  const std::vector<Block> blocks{random_block(rng, kB),
                                  random_block(rng, kB)};
  ASSERT_TRUE(cluster.write_blocks(0, 0, js, blocks));
  EXPECT_EQ(cluster.read_blocks(1, 0, js), blocks);
  // Untouched blocks remain zeros.
  EXPECT_EQ(cluster.read_block(2, 0, 1), zero_block(kB));
}

TEST(MultiBlockTest, ReadBlocksInRequestedOrder) {
  Cluster cluster(make_config(), 3);
  Rng rng(3);
  auto stripe = random_stripe(rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  const auto out = cluster.read_blocks(1, 0, {4, 0, 2});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ((*out)[0], stripe[4]);
  EXPECT_EQ((*out)[1], stripe[0]);
  EXPECT_EQ((*out)[2], stripe[2]);
}

TEST(MultiBlockTest, FastWriteCosts) {
  // 4δ, 4n messages, payload (2w + k)B for a w-block write: w old blocks
  // back in MultiOrderRead, w new blocks + k combined deltas out in
  // MultiModify.
  Cluster cluster(make_config(), 4);
  Rng rng(4);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  for (std::uint32_t w : {2u, 3u}) {
    std::vector<BlockIndex> js;
    std::vector<Block> blocks;
    for (std::uint32_t i = 0; i < w; ++i) {
      js.push_back(i);
      blocks.push_back(random_block(rng, kB));
    }
    cluster.network().reset_stats();
    cluster.reset_io_stats();
    const sim::Time start = cluster.simulator().now();
    ASSERT_TRUE(cluster.write_blocks(0, 0, js, blocks));
    EXPECT_EQ((cluster.simulator().now() - start) / sim::kDefaultDelta, 4);
    EXPECT_EQ(cluster.network().stats().messages_sent, 4 * kN);
    EXPECT_EQ(cluster.network().stats().bytes_sent / kB, 2 * w + kK);
    // Disk: w old-block reads + k parity reads; w + k writes.
    EXPECT_EQ(cluster.total_io().disk_reads, w + kK);
    EXPECT_EQ(cluster.total_io().disk_writes, w + kK);
  }
}

/// Everything one block read costs: latency in δ, messages, payload in
/// blocks, disk I/O.
struct ReadCost {
  sim::Duration deltas = 0;
  std::uint64_t messages = 0;
  std::uint64_t payload_blocks = 0;
  std::uint64_t disk_reads = 0;
  std::uint64_t disk_writes = 0;
  bool operator==(const ReadCost&) const = default;
};

/// Reads block 2 of a written stripe through read_block(2) or through
/// read_blocks({2}), optionally with p_2 crashed.
ReadCost measure_block_read(bool via_read_blocks, bool crash_target) {
  Cluster cluster(make_config(), 11);
  Rng rng(11);
  const auto stripe = random_stripe(rng);
  EXPECT_TRUE(cluster.write_stripe(0, 0, stripe));
  if (crash_target) cluster.crash(2);
  cluster.network().reset_stats();
  cluster.reset_io_stats();
  const sim::Time start = cluster.simulator().now();
  const std::optional<Block> block =
      via_read_blocks ? cluster.read_blocks(0, 0, {2}).value().at(0)
                      : cluster.read_block(0, 0, 2);
  EXPECT_EQ(block, stripe[2]);
  return {(cluster.simulator().now() - start) / sim::kDefaultDelta,
          cluster.network().stats().messages_sent,
          cluster.network().stats().bytes_sent / kB,
          cluster.total_io().disk_reads, cluster.total_io().disk_writes};
}

TEST(MultiBlockTest, ReadBlockIsReadBlocksOfOneIndex) {
  for (bool crashed : {false, true}) {
    EXPECT_EQ(measure_block_read(false, crashed),
              measure_block_read(true, crashed))
        << "crashed=" << crashed;
  }
  // Healthy: one 2δ round, p_j's block on the wire.
  EXPECT_EQ(measure_block_read(true, false), (ReadCost{2, 2 * kN, 1, 1, 0}));
  // p_j down: the quorum round proves one complete version, and a validated
  // round to the m plan sources rebuilds the block — no recovery write-back.
  EXPECT_EQ(measure_block_read(true, true),
            (ReadCost{4, (2 * kN - 1) + 2 * kM, kM, kM, 0}));
}

TEST(MultiBlockTest, StatsCountReadsByBlockCountNotEntryPoint) {
  // As for writes: a one-index read_blocks is a block read like
  // read_block, so fast_read_hits / block_reads means the same whichever
  // entry point a front end uses.
  Cluster cluster(make_config(), 12);
  Rng rng(12);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  ASSERT_TRUE(cluster.read_block(1, 0, 2).has_value());
  ASSERT_TRUE(cluster.read_blocks(2, 0, {3}).has_value());
  CoordinatorStats stats = cluster.total_coordinator_stats();
  EXPECT_EQ(stats.block_reads, 2u);
  EXPECT_EQ(stats.multi_block_reads, 0u);
  EXPECT_EQ(stats.fast_read_hits, 2u);

  ASSERT_TRUE(cluster.read_blocks(3, 0, {0, 4}).has_value());
  stats = cluster.total_coordinator_stats();
  EXPECT_EQ(stats.block_reads, 2u);
  EXPECT_EQ(stats.multi_block_reads, 1u);
  EXPECT_EQ(stats.fast_read_hits, 3u);
}

TEST(MultiBlockTest, FastReadCosts) {
  Cluster cluster(make_config(), 5);
  Rng rng(5);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  cluster.network().reset_stats();
  cluster.reset_io_stats();
  const sim::Time start = cluster.simulator().now();
  ASSERT_TRUE(cluster.read_blocks(1, 0, {0, 1, 2}).has_value());
  EXPECT_EQ((cluster.simulator().now() - start) / sim::kDefaultDelta, 2);
  EXPECT_EQ(cluster.network().stats().messages_sent, 2 * kN);
  EXPECT_EQ(cluster.total_io().disk_reads, 3u);
  EXPECT_EQ(cluster.network().stats().bytes_sent / kB, 3u);
}

TEST(MultiBlockTest, AtomicityUnderCoordinatorCrash) {
  // A crashed multi-block write takes effect entirely or not at all —
  // never some of the w blocks without the others.
  Cluster cluster(make_config(), 6);
  Rng rng(6);
  auto stripe = random_stripe(rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));

  const std::vector<BlockIndex> js{0, 4};
  const std::vector<Block> blocks{random_block(rng, kB),
                                  random_block(rng, kB)};
  cluster.coordinator(1).write_blocks(0, js, blocks, [](auto) {});
  cluster.simulator().run_for(3 * sim::kDefaultDelta - 1);
  cluster.crash(1);
  cluster.simulator().run_until_idle();

  const auto seen = cluster.read_stripe(2, 0);
  ASSERT_TRUE(seen.has_value());
  auto with_new = stripe;
  with_new[0] = blocks[0];
  with_new[4] = blocks[1];
  EXPECT_TRUE(*seen == stripe || *seen == with_new)
      << "multi-block write must be all-or-nothing";
  cluster.recover_brick(1);
  EXPECT_EQ(cluster.read_stripe(3, 0), *seen);
}

TEST(MultiBlockTest, SlowPathWhenTargetDown) {
  Cluster cluster(make_config(), 7);
  Rng rng(7);
  auto stripe = random_stripe(rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  cluster.crash(1);
  const std::vector<BlockIndex> js{1, 2};
  const std::vector<Block> blocks{random_block(rng, kB),
                                  random_block(rng, kB)};
  ASSERT_TRUE(cluster.write_blocks(0, 0, js, blocks));
  EXPECT_EQ(cluster.total_coordinator_stats().slow_block_writes, 1u);
  stripe[1] = blocks[0];
  stripe[2] = blocks[1];
  cluster.recover_brick(1);
  EXPECT_EQ(cluster.read_stripe(1, 0), stripe);
}

TEST(MultiBlockTest, FullWidthMultiWriteEqualsStripeSemantics) {
  Cluster cluster(make_config(), 8);
  Rng rng(8);
  std::vector<BlockIndex> js;
  std::vector<Block> blocks;
  for (std::uint32_t j = 0; j < kM; ++j) {
    js.push_back(j);
    blocks.push_back(random_block(rng, kB));
  }
  ASSERT_TRUE(cluster.write_blocks(0, 0, js, blocks));
  EXPECT_EQ(cluster.read_stripe(1, 0), blocks);
}

TEST(MultiBlockTest, InterleavesWithSingleBlockWrites) {
  Cluster cluster(make_config(), 9);
  Rng rng(9);
  auto stripe = random_stripe(rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  for (int round = 0; round < 5; ++round) {
    stripe[0] = random_block(rng, kB);
    ASSERT_TRUE(cluster.write_block(round % kN, 0, 0, stripe[0]));
    stripe[2] = random_block(rng, kB);
    stripe[3] = random_block(rng, kB);
    ASSERT_TRUE(cluster.write_blocks((round + 1) % kN, 0, {2, 3},
                                     {stripe[2], stripe[3]}));
  }
  EXPECT_EQ(cluster.read_stripe(1, 0), stripe);
  // All on the fast path: no recovery needed between op kinds.
  EXPECT_EQ(cluster.total_coordinator_stats().recoveries_started, 0u);
}

TEST(MultiBlockTest, ParityOnlyReconstructionAfterMultiWrites) {
  Cluster cluster(make_config(), 10);
  Rng rng(10);
  auto stripe = random_stripe(rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  stripe[1] = random_block(rng, kB);
  stripe[3] = random_block(rng, kB);
  ASSERT_TRUE(cluster.write_blocks(0, 0, {1, 3}, {stripe[1], stripe[3]}));
  // Crash a written-to data brick: its block must be reconstructible from
  // the combined-delta-updated parity.
  cluster.crash(1);
  EXPECT_EQ(cluster.read_block(0, 0, 1), stripe[1]);
  EXPECT_EQ(cluster.read_stripe(2, 0), stripe);
}

}  // namespace
}  // namespace fabec::core
