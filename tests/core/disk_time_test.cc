// The disk service-time model: replica replies wait for their disk I/O.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"

namespace fabec::core {
namespace {

constexpr std::size_t kB = 256;

ClusterConfig make_config(sim::Duration disk_time) {
  ClusterConfig config;
  config.n = 8;
  config.m = 5;
  config.block_size = kB;
  config.disk_service_time = disk_time;
  config.coordinator.auto_gc = false;
  return config;
}

std::vector<Block> random_stripe(Rng& rng) {
  std::vector<Block> stripe;
  for (int i = 0; i < 5; ++i) stripe.push_back(random_block(rng, kB));
  return stripe;
}

TEST(DiskTimeTest, ZeroServiceTimeIsInstantaneous) {
  Cluster cluster(make_config(0), 1);
  Rng rng(1);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  const sim::Time start = cluster.simulator().now();
  ASSERT_TRUE(cluster.read_stripe(0, 0).has_value());
  EXPECT_EQ(cluster.simulator().now() - start, 2 * sim::kDefaultDelta);
}

TEST(DiskTimeTest, ReadWaitsForOneBlockRead) {
  const sim::Duration disk = sim::microseconds(40);
  Cluster cluster(make_config(disk), 2);
  Rng rng(2);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  const sim::Time start = cluster.simulator().now();
  // Fast stripe read: each target performs 1 disk read before replying, in
  // parallel across targets -> total 2δ + disk.
  ASSERT_TRUE(cluster.read_stripe(0, 0).has_value());
  EXPECT_EQ(cluster.simulator().now() - start, 2 * sim::kDefaultDelta + disk);
}

TEST(DiskTimeTest, WriteWaitsForOneBlockWrite) {
  const sim::Duration disk = sim::microseconds(40);
  Cluster cluster(make_config(disk), 3);
  Rng rng(3);
  const sim::Time start = cluster.simulator().now();
  // Order phase: NVRAM only (no delay). Write phase: 1 disk write each.
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  EXPECT_EQ(cluster.simulator().now() - start, 4 * sim::kDefaultDelta + disk);
}

TEST(DiskTimeTest, WithoutGraceLoadedTargetFallsToRecovery) {
  // The quorum fills with the 7 I/O-free replies before p_j's disk-delayed
  // one arrives; with target_grace = 0 the fast attempt finalizes without
  // p_j and the write takes the recovery path.
  const sim::Duration disk = sim::microseconds(40);
  Cluster cluster(make_config(disk), 4);
  Rng rng(4);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  ASSERT_TRUE(cluster.write_block(0, 0, 2, random_block(rng, kB)));
  EXPECT_EQ(cluster.total_coordinator_stats().slow_block_writes, 1u);
}

TEST(DiskTimeTest, GraceRestoresTheFastPathUnderDiskDelay) {
  const sim::Duration disk = sim::microseconds(40);
  ClusterConfig config = make_config(disk);
  config.coordinator.target_grace = 2 * sim::kDefaultDelta;
  Cluster cluster(config, 4);
  Rng rng(4);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  const sim::Time start = cluster.simulator().now();
  // Fast block write: Order&Read (p_j: 1 read) + Modify (parity: 1 read +
  // 1 write; p_j: 1 write). The slowest replica gates each round:
  // 4δ + disk (p_j's read) + 2*disk (parity read-modify-write).
  ASSERT_TRUE(cluster.write_block(0, 0, 2, random_block(rng, kB)));
  EXPECT_EQ(cluster.simulator().now() - start,
            4 * sim::kDefaultDelta + disk + 2 * disk);
  EXPECT_EQ(cluster.total_coordinator_stats().fast_block_write_hits, 1u);
}

TEST(DiskTimeTest, GraceIsBoundedWhenTargetIsDown) {
  // A crashed target cannot answer; the grace elapses once and the
  // operation proceeds on the slow path, costing grace + recovery — not a
  // hang.
  const sim::Duration grace = 3 * sim::kDefaultDelta;
  ClusterConfig config = make_config(sim::microseconds(40));
  config.coordinator.target_grace = grace;
  Cluster cluster(config, 5);
  Rng rng(5);
  auto stripe = random_stripe(rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  cluster.crash(2);
  const sim::Time start = cluster.simulator().now();
  const Block nb = random_block(rng, kB);
  ASSERT_TRUE(cluster.write_block(0, 0, 2, nb));
  // At most one grace per phase was paid on top of the slow path.
  EXPECT_LE(cluster.simulator().now() - start,
            8 * sim::kDefaultDelta + 3 * grace);
  stripe[2] = nb;
  cluster.recover_brick(2);
  EXPECT_EQ(cluster.read_stripe(1, 0), stripe);
}

TEST(DiskTimeTest, DiskBoundRegimePreservesCorrectness) {
  // Disk 10x slower than the network: everything still linearizes and
  // round-trips; only latency grows.
  Cluster cluster(make_config(10 * sim::kDefaultDelta), 5);
  Rng rng(5);
  auto stripe = random_stripe(rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  for (int round = 0; round < 3; ++round) {
    stripe[1] = random_block(rng, kB);
    ASSERT_TRUE(cluster.write_block(round % 8, 0, 1, stripe[1]));
  }
  EXPECT_EQ(cluster.read_stripe(3, 0), stripe);
}

TEST(DiskTimeTest, CrashDuringDiskServiceLosesTheReply) {
  // A replica that crashes while its reply waits on the disk never sends
  // it; the operation completes from the other replicas.
  const sim::Duration disk = 5 * sim::kDefaultDelta;
  Cluster cluster(make_config(disk), 6);
  Rng rng(6);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));

  std::optional<Coordinator::StripeOutcome> result;
  cluster.coordinator(0).read_stripe(
      0, [&](Coordinator::StripeOutcome r) { result = std::move(r); });
  // Requests land at δ; replies are gated behind the disk. Crash one brick
  // mid-service.
  cluster.simulator().run_for(sim::kDefaultDelta + disk / 2);
  cluster.crash(7);
  cluster.simulator().run_until_pred([&] { return result.has_value(); });
  ASSERT_TRUE(result.has_value());
  // The fast path may or may not have included brick 7 as a target; either
  // way the read completes and is correct.
  EXPECT_TRUE(result->ok());
}

}  // namespace
}  // namespace fabec::core
