// Seed sweeps of the disk-fault campaigns (chaos/disk_campaign.h): every
// profile must hold the never-lose-an-acked-write oracle across many
// seeds, replays must be bit-identical, and the WAL must stay bounded.
// Also runs a bit-rot torture campaign end to end: corruption injected at
// the media level must be detected by the scrub pass and erased by repair.
#include "chaos/disk_campaign.h"

#include <gtest/gtest.h>

#include "chaos/campaign.h"

namespace fabec::chaos {
namespace {

void sweep(DiskProfile profile, std::uint64_t seeds) {
  DiskCampaignConfig cfg;
  cfg.profile = profile;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const auto r = run_disk_campaign(cfg, seed);
    ASSERT_TRUE(r.ok) << "seed " << seed << ": " << r.violation << "\n  "
                      << disk_replay_command(cfg, seed);
    EXPECT_EQ(r.rounds_run, cfg.rounds);
    // Each round's kill forces a fresh recovery, plus the final clean one.
    EXPECT_GE(r.recoveries, cfg.rounds);
    EXPECT_GT(r.writes_acked, 0u);
    // WAL-bounded: compaction ran and the active journal never grew past
    // threshold + one record's worth of slack.
    EXPECT_GT(r.compactions, 0u) << "seed " << seed;
    EXPECT_LT(r.max_journal_bytes, 2 * cfg.compact_threshold_bytes)
        << "seed " << seed;
  }
}

TEST(DiskCampaignTest, BitFlipSweepHoldsOracle) {
  sweep(DiskProfile::kBitFlip, 25);
}

TEST(DiskCampaignTest, TornWriteSweepHoldsOracle) {
  sweep(DiskProfile::kTornWrite, 25);
}

TEST(DiskCampaignTest, EnospcSweepHoldsOracle) {
  sweep(DiskProfile::kEnospc, 25);
}

TEST(DiskCampaignTest, FaultsActuallyFire) {
  // Aggregate across a sweep: a campaign that never injects its profile's
  // fault would pass the oracle vacuously.
  DiskCampaignConfig cfg;
  std::uint64_t flips = 0, crashes = 0, refused = 0, rejected = 0,
                detected = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    cfg.profile = DiskProfile::kBitFlip;
    auto r = run_disk_campaign(cfg, seed);
    ASSERT_TRUE(r.ok) << r.violation;
    flips += r.bit_flips_injected;
    rejected += r.snapshots_rejected;
    detected += r.detected_corruptions;
    cfg.profile = DiskProfile::kTornWrite;
    r = run_disk_campaign(cfg, seed);
    ASSERT_TRUE(r.ok) << r.violation;
    crashes += r.crashes_injected;
    cfg.profile = DiskProfile::kEnospc;
    r = run_disk_campaign(cfg, seed);
    ASSERT_TRUE(r.ok) << r.violation;
    refused += r.appends_refused;
  }
  EXPECT_GT(flips, 0u);
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(refused, 0u);
  // Bit flips must land where they hurt: some sweeps reject a rotted
  // snapshot generation, some surface as quarantined CRC failures.
  EXPECT_GT(rejected + detected, 0u);
}

TEST(DiskCampaignTest, SameSeedReplaysBitForBit) {
  for (const auto profile :
       {DiskProfile::kBitFlip, DiskProfile::kTornWrite, DiskProfile::kEnospc}) {
    DiskCampaignConfig cfg;
    cfg.profile = profile;
    const auto a = run_disk_campaign(cfg, 99);
    const auto b = run_disk_campaign(cfg, 99);
    EXPECT_EQ(a.state_hash, b.state_hash) << to_string(profile);
    EXPECT_EQ(a.writes_acked, b.writes_acked);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.ok, b.ok);
  }
}

TEST(DiskCampaignTest, BitRotTortureCampaignScrubsAndRepairs) {
  // Cluster-level: the nemesis rots block payloads on individual bricks
  // mid-run; the protocol must never serve the rot (CRC quarantines it as
  // an erasure), and the end-of-run scrub -> repair -> re-scrub pass must
  // leave every touched stripe clean.
  CampaignConfig cfg;
  cfg.n = 5;
  cfg.m = 3;
  cfg.num_ops = 120;
  cfg.nemesis.bit_rots = 3;
  cfg.op_deadline = 60 * sim::kDefaultDelta;
  cfg.retry.max_attempts = 3;
  std::uint64_t rots = 0, scrubbed = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto r = run_campaign(cfg, seed);
    ASSERT_TRUE(r.ok) << "seed " << seed << ": " << r.violation;
    EXPECT_EQ(r.scrubs_clean, r.stripes_scrubbed) << "seed " << seed;
    rots += r.faults.bit_rots_injected;
    scrubbed += r.stripes_scrubbed;
  }
  EXPECT_GT(rots, 0u);
  EXPECT_GT(scrubbed, 0u);
}

}  // namespace
}  // namespace fabec::chaos
