// Locality-aware repair at the protocol level (DESIGN.md §14): the three
// repair consumers — rebuild_brick, the coordinator's degraded read, and
// the scrub-quarantine heal — must consult the code family's repair plan
// instead of assuming "fetch any m", and an LRC plan must fetch at most the
// lost block's local group (< m sources) for a single-strip loss.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "core/cluster.h"
#include "fab/rebuild.h"

namespace fabec::core {
namespace {

constexpr std::size_t kB = 128;

// LRC(4,2,2): n = 8 = 4 data + 2 local XOR parities + 2 global parities.
// Groups: {0, 1, p4} and {2, 3, p5} — a single loss inside an intact group
// repairs from the 2 surviving group members instead of any-4-of-8.
ClusterConfig lrc_config() {
  ClusterConfig config;
  config.n = 8;
  config.m = 4;
  config.code.family = erasure::CodeSpec::Family::kLrc;
  config.code.local_groups = 2;
  config.code.global_parities = 2;
  config.block_size = kB;
  return config;
}

ClusterConfig rs_config() {
  ClusterConfig config;
  config.n = 8;
  config.m = 4;
  config.block_size = kB;
  return config;
}

std::vector<Block> rand_stripe(std::uint32_t m, Rng& rng) {
  std::vector<Block> stripe;
  for (std::uint32_t i = 0; i < m; ++i)
    stripe.push_back(random_block(rng, kB));
  return stripe;
}

TEST(RepairPlanTest, LrcToleranceShrinksFaultBudget) {
  Cluster cluster(lrc_config(), 1);
  // LRC(4,2,2) tolerance g + 1 = 3, so f = floor(3/2) = 1; the MDS code of
  // the same shape would have f = 2. The register must not promise quorum
  // intersections it cannot decode through.
  EXPECT_EQ(cluster.codec().max_erasures_any(), 3u);
  EXPECT_EQ(cluster.quorum_config().f(), 1u);
  EXPECT_EQ(Cluster(rs_config(), 1).quorum_config().f(), 2u);
}

TEST(RepairPlanTest, LrcRebuildFetchesOnlyTheLocalGroup) {
  Cluster cluster(lrc_config(), 2);
  Rng rng(2);
  constexpr StripeId kStripes = 6;
  std::map<StripeId, std::vector<Block>> golden;
  for (StripeId s = 0; s < kStripes; ++s) {
    golden[s] = rand_stripe(4, rng);
    ASSERT_TRUE(cluster.write_stripe(0, s, golden[s]));
  }
  cluster.replace_brick(1);  // data block 1, group {0, 1, p4}
  const auto report = fab::rebuild_brick(cluster, 1, kStripes);
  EXPECT_EQ(report.stripes_repaired, kStripes);
  EXPECT_EQ(report.blocks_rebuilt, kStripes);
  EXPECT_EQ(report.rebuild_fallbacks, 0u);
  // THE acceptance assertion: a single-strip loss inside an intact local
  // group fetches exactly the group's other members — 2 blocks, i.e.
  // <= group size - 1 and strictly fewer than the m = 4 a full decode
  // (and any MDS code) would pull over the wire.
  EXPECT_EQ(report.source_blocks_fetched, 2u * kStripes);
  EXPECT_LT(report.source_blocks_fetched / kStripes,
            static_cast<std::uint64_t>(cluster.config().m));
  // The rebuilt brick really holds its blocks again.
  EXPECT_EQ(cluster.store(1).stripes_stored(), kStripes);
  for (const auto& [s, expected] : golden)
    EXPECT_EQ(cluster.read_stripe(0, s), expected) << "stripe " << s;
}

TEST(RepairPlanTest, RsRebuildFetchesADecodeSet) {
  Cluster cluster(rs_config(), 3);
  Rng rng(3);
  constexpr StripeId kStripes = 4;
  for (StripeId s = 0; s < kStripes; ++s)
    ASSERT_TRUE(cluster.write_stripe(0, s, rand_stripe(4, rng)));
  cluster.replace_brick(1);
  const auto report = fab::rebuild_brick(cluster, 1, kStripes);
  EXPECT_EQ(report.blocks_rebuilt, kStripes);
  // MDS repair plan: any m = 4 survivors — twice the LRC local group.
  EXPECT_EQ(report.source_blocks_fetched, 4u * kStripes);
}

TEST(RepairPlanTest, LrcGlobalParityLossFallsBackToDecode) {
  // A lost global parity has no local group; the plan degenerates to a
  // full decode + re-encode, which rebuild_block handles via fallback.
  Cluster cluster(lrc_config(), 4);
  Rng rng(4);
  ASSERT_TRUE(cluster.write_stripe(0, 0, rand_stripe(4, rng)));
  cluster.replace_brick(6);  // global parity position
  const auto report = fab::rebuild_brick(cluster, 6, 1);
  EXPECT_EQ(report.stripes_repaired, 1u);
  EXPECT_GT(cluster.store(6).stripes_stored(), 0u);
}

TEST(RepairPlanTest, DegradedReadAvoidsRecovery) {
  Cluster cluster(lrc_config(), 5);
  Rng rng(5);
  const auto stripe = rand_stripe(4, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  cluster.crash(3);  // data block 3, group {2, 3, p5}
  EXPECT_EQ(cluster.read_block(0, 0, 3), stripe[3]);
  const auto stats = cluster.total_coordinator_stats();
  // Served by validated probes to the repair plan's sources — one extra
  // round, no recovery, no write-back.
  EXPECT_GE(stats.degraded_reads, 1u);
  EXPECT_EQ(stats.recoveries_started, 0u);
}

TEST(RepairPlanTest, DegradedMultiBlockReadAvoidsRecovery) {
  // A multi-block read missing exactly one requested block takes the same
  // degraded branch as a single-block read; two missing blocks recover.
  for (const ClusterConfig& config : {rs_config(), lrc_config()}) {
    Cluster cluster(config, 7);
    Rng rng(7);
    const auto stripe = rand_stripe(4, rng);
    ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
    cluster.crash(3);
    const auto before = cluster.total_coordinator_stats();
    EXPECT_EQ(cluster.read_blocks(0, 0, {1, 3}),
              (std::vector<Block>{stripe[1], stripe[3]}));
    const auto after = cluster.total_coordinator_stats();
    EXPECT_EQ(after.degraded_reads, before.degraded_reads + 1)
        << erasure::to_string(config.code);
    EXPECT_EQ(after.recoveries_started, before.recoveries_started)
        << erasure::to_string(config.code);
  }
  Cluster cluster(rs_config(), 8);  // RS(8, 4) tolerates f = 2
  Rng rng(8);
  const auto stripe = rand_stripe(4, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  cluster.crash(1);
  cluster.crash(3);
  EXPECT_EQ(cluster.read_blocks(0, 0, {1, 3}),
            (std::vector<Block>{stripe[1], stripe[3]}));
  EXPECT_EQ(cluster.total_coordinator_stats().degraded_reads, 0u);
  EXPECT_EQ(cluster.total_coordinator_stats().recoveries_started, 1u);
}

TEST(RepairPlanTest, DegradedReadStillLinearizesAfterPartialWrite) {
  // A write that reached only some replicas leaves no common complete
  // version at the probe round; the degraded read must fall back to the
  // recovery path rather than serve a maybe-incomplete version.
  Cluster cluster(lrc_config(), 6);
  Rng rng(6);
  const auto v1 = rand_stripe(4, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, v1));

  const auto v2 = rand_stripe(4, rng);
  bool write_done = false;
  cluster.coordinator(1).write_stripe(0, v2, [&](auto) { write_done = true; });
  // Let the write start (Order phase lands somewhere), then kill its
  // coordinator mid-flight.
  cluster.simulator().run_for(1);
  cluster.crash(1);
  cluster.simulator().run_until_idle();
  EXPECT_FALSE(write_done);

  const auto block = cluster.read_block(0, 0, 3);
  ASSERT_TRUE(block.has_value());
  // Either the old or the new value — and afterwards the register is
  // repaired, so a second read agrees.
  EXPECT_TRUE(*block == v1[3] || *block == v2[3]);
  EXPECT_EQ(cluster.read_block(2, 0, 3), *block);
}

TEST(RepairPlanTest, ScrubHealsRottedBlockInPlace) {
  Cluster cluster(lrc_config(), 7);
  Rng rng(7);
  const auto stripe = rand_stripe(4, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  cluster.simulator().run_until_idle();

  auto& store = cluster.store(3).replica(0);
  const std::size_t entries_before = store.log_entries();
  store.rot_newest_block(/*seed=*/99);
  ASSERT_EQ(store.count_crc_failures(), 1u);

  const auto report =
      fab::scrub_stripes(cluster, 1, /*coordinator=*/0, /*repair=*/true);
  EXPECT_EQ(report.corrupt, 1u);
  EXPECT_EQ(report.repaired, 1u);
  // The erasure verdict names the silent replica, the repair plan fetches
  // its local group, and the catch-up write lands at the corrupt entry's
  // own timestamp: healed IN PLACE, no new log entry, no full write-back.
  EXPECT_EQ(report.locally_repaired, 1u);
  EXPECT_EQ(store.count_crc_failures(), 0u);
  EXPECT_EQ(store.log_entries(), entries_before);
  EXPECT_EQ(cluster.read_stripe(0, 0), stripe);
}

TEST(RepairPlanTest, ScrubHealSurvivesRsToo) {
  // The heal path is family-agnostic: RS picks m sources instead of the
  // local group, but the in-place catch-up write is identical.
  Cluster cluster(rs_config(), 8);
  Rng rng(8);
  const auto stripe = rand_stripe(4, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  cluster.simulator().run_until_idle();
  cluster.store(5).replica(0).rot_newest_block(/*seed=*/7);

  const auto report =
      fab::scrub_stripes(cluster, 1, /*coordinator=*/0, /*repair=*/true);
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(report.locally_repaired, 1u);
  EXPECT_EQ(cluster.store(5).replica(0).count_crc_failures(), 0u);
  EXPECT_EQ(cluster.read_stripe(0, 0), stripe);
}

TEST(RepairPlanTest, LrcEndToEndUnderItsFaultBudget) {
  // Whole-family smoke: writes, wide reads, block reads with one brick
  // down (f = 1), across a brick pool with rotated groups.
  auto config = lrc_config();
  config.total_bricks = 16;
  Cluster cluster(config, 9);
  Rng rng(9);
  std::map<StripeId, std::vector<Block>> golden;
  for (StripeId s = 0; s < 8; ++s) {
    golden[s] = rand_stripe(4, rng);
    ASSERT_TRUE(cluster.write_stripe(s % 16, s, golden[s]));
  }
  cluster.crash(2);
  for (const auto& [s, expected] : golden) {
    const ProcessId coord = (s + 1) % 16 == 2 ? 9 : (s + 1) % 16;
    EXPECT_EQ(cluster.read_stripe(coord, s), expected);
    EXPECT_EQ(cluster.read_block((s + 3) % 16, s, 1), expected[1]);
  }
}

}  // namespace
}  // namespace fabec::core
