// Parity scrubbing: background latent-error detection plus repair.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"

namespace fabec::core {
namespace {

constexpr std::size_t kB = 128;

ClusterConfig make_config() {
  ClusterConfig config;
  config.n = 8;
  config.m = 5;
  config.block_size = kB;
  return config;
}

std::vector<Block> random_stripe(Rng& rng) {
  std::vector<Block> stripe;
  for (int i = 0; i < 5; ++i) stripe.push_back(random_block(rng, kB));
  return stripe;
}

Coordinator::ScrubResult scrub(Cluster& cluster, ProcessId coord,
                               StripeId stripe) {
  std::optional<Coordinator::ScrubResult> result;
  cluster.coordinator(coord).scrub_stripe(
      stripe, [&result](Coordinator::ScrubResult r) { result = r; });
  cluster.simulator().run_until_pred([&result] { return result.has_value(); });
  return result.value_or(Coordinator::ScrubResult::kInconclusive);
}

TEST(ScrubTest, FreshStripeIsClean) {
  Cluster cluster(make_config(), 1);
  EXPECT_EQ(scrub(cluster, 0, 0), Coordinator::ScrubResult::kClean);
}

TEST(ScrubTest, CleanAfterEveryKindOfWrite) {
  Cluster cluster(make_config(), 2);
  Rng rng(2);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  EXPECT_EQ(scrub(cluster, 1, 0), Coordinator::ScrubResult::kClean);
  ASSERT_TRUE(cluster.write_block(2, 0, 3, random_block(rng, kB)));
  EXPECT_EQ(scrub(cluster, 3, 0), Coordinator::ScrubResult::kClean);
  ASSERT_TRUE(cluster.write_blocks(4, 0, {0, 2},
                                   {random_block(rng, kB),
                                    random_block(rng, kB)}));
  EXPECT_EQ(scrub(cluster, 5, 0), Coordinator::ScrubResult::kClean);
}

TEST(ScrubTest, DetectsLatentCorruptionOfData) {
  Cluster cluster(make_config(), 3);
  Rng rng(3);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  // Silent bit rot on a data brick: the protocol cannot notice (timestamps
  // are intact); the scrub must.
  cluster.store(2).replica(0).corrupt_newest_block(random_block(rng, kB));
  EXPECT_EQ(scrub(cluster, 0, 0), Coordinator::ScrubResult::kCorrupt);
}

TEST(ScrubTest, DetectsLatentCorruptionOfParity) {
  Cluster cluster(make_config(), 4);
  Rng rng(4);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  cluster.store(6).replica(0).corrupt_newest_block(random_block(rng, kB));
  EXPECT_EQ(scrub(cluster, 1, 0), Coordinator::ScrubResult::kCorrupt);
}

TEST(ScrubTest, RepairHealsCorruptedParity) {
  // A corrupted PARITY brick is healable: the m data blocks are intact, so
  // recovery reconstructs the true stripe and its write-back re-encodes
  // fresh parity everywhere.
  Cluster cluster(make_config(), 5);
  Rng rng(5);
  const auto stripe = random_stripe(rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  cluster.store(7).replica(0).corrupt_newest_block(random_block(rng, kB));
  ASSERT_EQ(scrub(cluster, 0, 0), Coordinator::ScrubResult::kCorrupt);

  std::optional<bool> repaired;
  cluster.coordinator(0).repair_stripe(0, [&](auto r) { repaired = r.ok(); });
  cluster.simulator().run_until_pred([&] { return repaired.has_value(); });
  EXPECT_EQ(repaired, true);
  EXPECT_EQ(scrub(cluster, 1, 0), Coordinator::ScrubResult::kClean);
  EXPECT_EQ(cluster.read_stripe(2, 0), stripe);
}

TEST(ScrubTest, InconclusiveWithBrickDown) {
  // A scrub cannot vouch for blocks it cannot see.
  Cluster cluster(make_config(), 6);
  Rng rng(6);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  cluster.crash(4);
  EXPECT_EQ(scrub(cluster, 0, 0), Coordinator::ScrubResult::kInconclusive);
}

TEST(ScrubTest, InconclusiveWhenRacingAWrite) {
  Cluster cluster(make_config(), 7);
  Rng rng(7);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  // Start a write; scrub one delta later, mid-flight.
  cluster.coordinator(0).write_stripe(0, random_stripe(rng), [](auto) {});
  std::optional<Coordinator::ScrubResult> result;
  cluster.simulator().schedule_after(sim::kDefaultDelta, [&] {
    cluster.coordinator(1).scrub_stripe(
        0, [&result](Coordinator::ScrubResult r) { result = r; });
  });
  cluster.simulator().run_until_idle();
  ASSERT_TRUE(result.has_value());
  // Racing a write: inconclusive (ordered-but-unwritten state) — and never
  // a false kCorrupt.
  EXPECT_NE(*result, Coordinator::ScrubResult::kCorrupt);
}

TEST(ScrubTest, ScrubIsReadOnly) {
  Cluster cluster(make_config(), 8);
  Rng rng(8);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(rng)));
  const auto entries_before = cluster.total_log_entries();
  cluster.reset_io_stats();
  ASSERT_EQ(scrub(cluster, 0, 0), Coordinator::ScrubResult::kClean);
  EXPECT_EQ(cluster.total_log_entries(), entries_before);
  EXPECT_EQ(cluster.total_io().disk_writes, 0u);
  EXPECT_EQ(cluster.total_io().disk_reads, 8u);  // one block per brick
}

// A CRC-rotted block is an erasure the replica detects itself. With
// n - 2f = m (n = 5, m = 3, f = 1) a read quorum holds exactly m blocks of
// a complete version, so a rotted holder inside that quorum must not pass
// for a replica that missed the version: recovery would descend and read
// an older value back.
ClusterConfig tight_config() {
  ClusterConfig config;
  config.n = 5;
  config.m = 3;
  config.block_size = kB;
  return config;
}

std::vector<Block> tight_stripe(Rng& rng) {
  std::vector<Block> stripe;
  for (int i = 0; i < 3; ++i) stripe.push_back(random_block(rng, kB));
  return stripe;
}

// Silences brick p's replies for `span` of virtual time.
void mute_for(Cluster& cluster, ProcessId p, sim::Duration span) {
  cluster.network().isolate_outbound(p);
  cluster.simulator().schedule_after(span,
                                     [&cluster] { cluster.network().heal(); });
}

TEST(RottedReplicaTest, OneRotInAQuorumWithALaggardWaitsForTheLastHolder) {
  Cluster cluster(tight_config(), 11);
  Rng rng(11);
  cluster.crash(4);
  const auto stripe = tight_stripe(rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));  // lands on bricks 0-3
  cluster.recover_brick(4);
  cluster.store(3).replica(0).rot_newest_block(/*seed=*/3);
  // The first quorum is bricks 1-4: two intact blocks, one rotted holder,
  // one laggard. Only brick 0 can complete the decode.
  mute_for(cluster, 0, 20 * sim::kDefaultDelta);
  EXPECT_EQ(cluster.read_stripe(2, 0), stripe);
}

TEST(RottedReplicaTest, TwoRotsInAQuorumWaitForTheFifthBrick) {
  Cluster cluster(tight_config(), 12);
  Rng rng(12);
  const auto stripe = tight_stripe(rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  cluster.simulator().run_until_idle();  // on all five bricks
  cluster.store(0).replica(0).rot_newest_block(/*seed=*/1);
  cluster.store(1).replica(0).rot_newest_block(/*seed=*/2);
  mute_for(cluster, 4, 20 * sim::kDefaultDelta);
  EXPECT_EQ(cluster.read_stripe(2, 0), stripe);
  // The recovery wrote the stripe back: the rotted bricks hold it again.
  EXPECT_EQ(cluster.read_stripe(3, 0), stripe);
}

TEST(RottedReplicaTest, AVersionRottedBeyondToleranceReadsAsAbortNotAsOlder) {
  Cluster cluster(tight_config(), 13);
  Rng rng(13);
  ASSERT_TRUE(cluster.write_stripe(0, 0, tight_stripe(rng)));
  cluster.simulator().run_until_idle();
  cluster.crash(4);
  ASSERT_TRUE(cluster.write_stripe(0, 0, tight_stripe(rng)));  // bricks 0-3
  cluster.recover_brick(4);
  cluster.store(1).replica(0).rot_newest_block(/*seed=*/1);
  cluster.store(2).replica(0).rot_newest_block(/*seed=*/2);
  // Two intact blocks of a complete version remain: no quorum can read
  // it, and returning the first stripe would undo a completed write.
  EXPECT_FALSE(cluster.read_stripe(3, 0).has_value());
}

}  // namespace
}  // namespace fabec::core
