// Chaos campaigns with per-destination frame batching on: the network's
// drop/duplicate/reorder unit becomes a whole multi-op frame, so one fault
// hits many op payloads at once. The strict-linearizability oracle (with
// the durability and replay-determinism checks) must hold anyway — framing
// may change performance and abort rates, never history semantics.
#include <gtest/gtest.h>

#include "chaos/campaign.h"

namespace fabec::chaos {
namespace {

void expect_clean(const CampaignConfig& cfg, std::uint64_t seed) {
  const CampaignResult r = run_campaign(cfg, seed);
  EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.violation << "\nreplay: "
                    << replay_command(cfg, seed);
  EXPECT_EQ(r.faults.persistence_violations, 0u);
  EXPECT_GT(r.ops_issued, 0u);
}

/// Baseline batched campaign: full fault menu plus duplicate ramps, a
/// heavy share of multi-block (footnote 2) ops so most frames carry
/// coalesced payloads, and client retries soaking up the extra aborts.
CampaignConfig batched_config() {
  CampaignConfig cfg;
  cfg.batch_frames = true;
  cfg.wide_op_fraction = 0.5;
  cfg.retry.max_attempts = 3;
  cfg.nemesis.dup_ramps = 2;
  return cfg;
}

class BatchChaosSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchChaosSeedTest, MixedFaultsOverFramedWire) {
  expect_clean(batched_config(), 800 + static_cast<std::uint64_t>(GetParam()));
}

TEST_P(BatchChaosSeedTest, DuplicateAndDropHeavyFrames) {
  // Lossy + duplicating network: whole frames vanish (losing every op
  // payload aboard) or arrive twice (replaying them all). Replica-side
  // idempotence and the timestamp order must absorb both.
  CampaignConfig cfg = batched_config();
  cfg.nemesis.dup_ramps = 3;
  cfg.nemesis.max_dup_probability = 0.3;
  cfg.nemesis.drop_ramps = 3;
  cfg.nemesis.max_drop_probability = 0.5;
  cfg.nemesis.crashes = 2;
  expect_clean(cfg, 900 + static_cast<std::uint64_t>(GetParam()));
}

TEST_P(BatchChaosSeedTest, CrashHeavyMidBatch) {
  // Crashes while frames are in flight: a dying brick takes its queued
  // frames down with it, and mid-phase coordinator crashes land between a
  // group's order and write rounds.
  CampaignConfig cfg = batched_config();
  cfg.nemesis.crashes = 8;
  cfg.nemesis.mid_phase_crashes = 3;
  cfg.nemesis.partitions = 0;
  cfg.nemesis.isolations = 0;
  expect_clean(cfg, 1000 + static_cast<std::uint64_t>(GetParam()));
}

// 3 scenarios × 10 seeds = 30 batched campaigns in the pinned sweep.
INSTANTIATE_TEST_SUITE_P(Seeds, BatchChaosSeedTest, ::testing::Range(0, 10));

TEST(BatchChaosReplayTest, SameSeedReproducesIdenticalHistoryHash) {
  const CampaignConfig cfg = batched_config();
  for (std::uint64_t seed : {21ull, 84ull, 4242ull}) {
    const CampaignResult a = run_campaign(cfg, seed);
    const CampaignResult b = run_campaign(cfg, seed);
    EXPECT_EQ(a.history_hash, b.history_hash) << "seed " << seed;
    EXPECT_EQ(a.events_run, b.events_run) << "seed " << seed;
    EXPECT_EQ(a.ops_ok, b.ops_ok) << "seed " << seed;
    EXPECT_EQ(a.violation, b.violation) << "seed " << seed;
  }
}

TEST(BatchChaosReplayTest, ReplayCommandCarriesTheBatchFlags) {
  // A failing batched campaign must print a replay recipe that actually
  // reproduces it — including the frame-batching and dup-ramp knobs.
  const CampaignConfig cfg = batched_config();
  const std::string cmd = replay_command(cfg, 77);
  EXPECT_NE(cmd.find("--batch-frames"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("--dup-ramps 2"), std::string::npos) << cmd;
}

TEST(BatchChaosNemesisTest, DupRampsActuallyFire) {
  // If the duplicate ramps never injected, the suite above isn't testing
  // frame replay at all.
  CampaignConfig cfg = batched_config();
  cfg.nemesis.crashes = 0;
  cfg.nemesis.partitions = 0;
  cfg.nemesis.isolations = 0;
  cfg.nemesis.drop_ramps = 0;
  cfg.nemesis.jitter_ramps = 0;
  cfg.nemesis.mid_phase_crashes = 0;
  cfg.nemesis.quorum_blackouts = 0;
  std::uint64_t ramps = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const CampaignResult r = run_campaign(cfg, seed);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.violation;
    ramps += r.faults.net_ramps;
  }
  EXPECT_GT(ramps, 0u);
}

TEST(BatchChaosNemesisTest, EnablingDupRampsKeepsOtherDrawsIdentical) {
  // The append-only draw-order contract: adding duplicate ramps to a
  // schedule must not perturb where any pre-existing fault class lands.
  core::ClusterConfig ccfg;
  core::Cluster cluster(ccfg, 7);
  NemesisConfig base;  // default menu, no dup ramps
  NemesisConfig with_dups = base;
  with_dups.dup_ramps = 2;
  Nemesis n1(&cluster, base, 123);
  Nemesis n2(&cluster, with_dups, 123);
  ASSERT_EQ(n2.schedule().size(), n1.schedule().size() + 2);
  std::size_t matched = 0;
  for (const FaultEvent& e1 : n1.schedule()) {
    for (const FaultEvent& e2 : n2.schedule())
      if (e1.describe() == e2.describe()) {
        ++matched;
        break;
      }
  }
  EXPECT_EQ(matched, n1.schedule().size());
}

}  // namespace
}  // namespace fabec::chaos
