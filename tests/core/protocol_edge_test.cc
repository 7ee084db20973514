// Edge-of-envelope protocol behaviour: liveness at and beyond the fault
// bound, weak progress after conflicts, deep recovery termination,
// retransmission deduplication, and stale-reply hygiene across coordinator
// crash/recovery.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"

namespace fabec::core {
namespace {

constexpr std::size_t kB = 64;

ClusterConfig make_config(std::uint32_t n, std::uint32_t m) {
  ClusterConfig config;
  config.n = n;
  config.m = m;
  config.block_size = kB;
  return config;
}

std::vector<Block> random_stripe(std::uint32_t m, Rng& rng) {
  std::vector<Block> stripe;
  for (std::uint32_t i = 0; i < m; ++i) stripe.push_back(random_block(rng, kB));
  return stripe;
}

TEST(ProtocolEdgeTest, OpsBlockBeyondFaultBoundAndResumeOnRecovery) {
  // f = 1 for (8,5): with two bricks down no m-quorum exists, so an
  // operation cannot complete — but it must not abort either; it resumes
  // and completes when a quorum is back (§6: progress whenever an m-quorum
  // comes back up). quorum() keeps retransmitting meanwhile.
  ClusterConfig config = make_config(8, 5);
  config.coordinator.retransmit_period = sim::milliseconds(1);
  Cluster cluster(config, 1);
  Rng rng(1);
  cluster.crash(6);
  cluster.crash(7);

  std::optional<bool> result;
  cluster.coordinator(0).write_stripe(0, random_stripe(5, rng),
                                      [&](auto r) { result = r.ok(); });
  cluster.simulator().run_for(sim::milliseconds(50));
  EXPECT_FALSE(result.has_value()) << "no quorum: the op must still be pending";
  EXPECT_GT(cluster.total_coordinator_stats().retransmit_rounds, 10u);

  cluster.recover_brick(6);  // quorum of 7 available again
  cluster.simulator().run_until_pred([&] { return result.has_value(); });
  EXPECT_EQ(result, true);
}

TEST(ProtocolEdgeTest, ZeroFaultToleranceNeedsEveryBrick) {
  // n == m: no parity, f = 0, quorum = n. One crash stalls everything.
  ClusterConfig config = make_config(4, 4);
  config.coordinator.retransmit_period = sim::milliseconds(1);
  Cluster cluster(config, 2);
  Rng rng(2);
  ASSERT_TRUE(cluster.write_stripe(0, 0, random_stripe(4, rng)));
  cluster.crash(3);
  std::optional<Coordinator::StripeOutcome> result;
  cluster.coordinator(0).read_stripe(
      0, [&](Coordinator::StripeOutcome r) { result = std::move(r); });
  cluster.simulator().run_for(sim::milliseconds(20));
  EXPECT_FALSE(result.has_value());
  cluster.recover_brick(3);
  cluster.simulator().run_until_pred([&] { return result.has_value(); });
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok());
}

TEST(ProtocolEdgeTest, WeakProgressAfterConflictStorm) {
  // Proposition 23: once a single process is the only one issuing
  // operations, its operations eventually stop aborting.
  Cluster cluster(make_config(8, 5), 3);
  Rng rng(3);
  // Conflict storm: several coordinators write concurrently; some abort.
  for (int round = 0; round < 3; ++round) {
    int completed = 0;
    for (ProcessId p = 0; p < 4; ++p)
      cluster.coordinator(p).write_stripe(0, random_stripe(5, rng),
                                          [&](auto) { ++completed; });
    cluster.simulator().run_until_idle();
    EXPECT_EQ(completed, 4);
  }
  // Now only brick 5 operates: every op succeeds.
  for (int round = 0; round < 5; ++round) {
    const auto stripe = random_stripe(5, rng);
    EXPECT_TRUE(cluster.write_stripe(5, 0, stripe)) << "round " << round;
    EXPECT_EQ(cluster.read_stripe(5, 0), stripe);
  }
}

TEST(ProtocolEdgeTest, RecoveryTerminatesOverDeepVersionHistory) {
  // Without GC, 40 versions accumulate; a recovery read after a partial
  // write must find the newest complete version in ONE iteration (all
  // replicas have it), not walk the whole log.
  ClusterConfig config = make_config(8, 5);
  config.coordinator.auto_gc = false;
  Cluster cluster(config, 4);
  Rng rng(4);
  std::vector<Block> last;
  for (int i = 0; i < 40; ++i) {
    last = random_stripe(5, rng);
    ASSERT_TRUE(cluster.write_stripe(0, 0, last));
  }
  // Partial write (Order only), then read.
  cluster.coordinator(1).write_stripe(0, random_stripe(5, rng), [](auto) {});
  cluster.simulator().run_for(sim::kDefaultDelta + 1);
  cluster.crash(1);
  cluster.simulator().run_until_idle();
  EXPECT_EQ(cluster.read_stripe(2, 0), last);
  EXPECT_EQ(cluster.total_coordinator_stats().recovery_iterations, 1u);
}

TEST(ProtocolEdgeTest, RecoveryWalksPastStackedPartialWrites) {
  // Three coordinators each crash mid-Write on the same stripe, stacking
  // three torn versions above the last complete one. Our Write phase
  // delivers to all-or-none at one instant, so to create *distinct* torn
  // depths we cut a different subset of links before each attempt.
  ClusterConfig config = make_config(8, 5);
  config.coordinator.auto_gc = false;
  Cluster cluster(config, 5);
  Rng rng(5);
  const auto complete = random_stripe(5, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, complete));

  for (ProcessId victim : {1u, 2u, 3u}) {
    auto& sim = cluster.simulator();
    // Cut victim -> bricks {4..7} just before its Write round at 2δ: only
    // 4 replicas (0..3 minus self-delivery nuance) receive the Write —
    // fewer than m = 5, an unrecoverable torn version.
    sim.schedule_at(sim.now() + 2 * sim::kDefaultDelta, [&cluster, victim] {
      for (ProcessId p = 4; p < 8; ++p)
        cluster.network().block_link(victim, p);
    });
    sim.schedule_at(sim.now() + 3 * sim::kDefaultDelta + 1,
                    [&cluster, victim] { cluster.crash(victim); });
    cluster.coordinator(victim).write_stripe(0, random_stripe(5, rng),
                                             [](auto) {});
    sim.run_until_idle();
    cluster.network().heal();
    cluster.recover_brick(victim);
  }

  // The read must walk back past all three torn versions to the last
  // complete write.
  EXPECT_EQ(cluster.read_stripe(7, 0), complete);
  EXPECT_GE(cluster.total_coordinator_stats().recovery_iterations, 2u);
  // And the write-back makes subsequent reads single-round again.
  const auto stats_before = cluster.total_coordinator_stats();
  EXPECT_EQ(cluster.read_stripe(6, 0), complete);
  EXPECT_EQ(cluster.total_coordinator_stats().recovery_iterations,
            stats_before.recovery_iterations);
}

TEST(ProtocolEdgeTest, RetransmissionsDoNotDoubleApply) {
  // Heavy request loss forces retransmissions; the reply cache must make
  // them idempotent — each replica logs each version at most once.
  ClusterConfig config = make_config(8, 5);
  config.net.drop_probability = 0.4;
  config.coordinator.retransmit_period = sim::milliseconds(1);
  config.coordinator.auto_gc = false;
  Cluster cluster(config, 6);
  Rng rng(6);
  int successes = 0;
  for (int i = 0; i < 10; ++i)
    successes += cluster.write_stripe(i % 8, 0, random_stripe(5, rng));
  ASSERT_GT(successes, 0);
  EXPECT_GT(cluster.total_coordinator_stats().retransmit_rounds, 0u);
  // Each brick's log: initial nil + at most one entry per write attempt
  // that reached it. Never more entries than attempts + 1.
  for (ProcessId p = 0; p < 8; ++p)
    EXPECT_LE(cluster.store(p).replica(0).log_entries(), 11u) << "brick " << p;
}

TEST(ProtocolEdgeTest, StaleRepliesAfterCoordinatorRecoveryAreIgnored) {
  // A coordinator crashes with operations in flight, recovers, and issues
  // new operations while the old replies are still in the network (large
  // jitter). Monotonic op ids must keep the stale replies from matching.
  ClusterConfig config = make_config(8, 5);
  config.net.jitter = 10 * sim::kDefaultDelta;
  Cluster cluster(config, 7);
  Rng rng(7);
  cluster.coordinator(0).write_stripe(0, random_stripe(5, rng), [](auto) {});
  cluster.simulator().run_for(sim::kDefaultDelta / 2);
  cluster.crash(0);
  cluster.recover_brick(0);
  // New operations from the same brick while stale replies drift in.
  const auto stripe = random_stripe(5, rng);
  EXPECT_TRUE(cluster.write_stripe(0, 0, stripe));
  const auto seen = cluster.read_stripe(0, 0);
  cluster.simulator().run_until_idle();  // drain every stale delivery
  EXPECT_EQ(seen, stripe);
  EXPECT_EQ(cluster.read_stripe(1, 0), stripe);
}

TEST(ProtocolEdgeTest, GcConcurrentWithRecoveryRead) {
  // A recovery read races GC from a fresh complete write on the same
  // stripe. GC only trims below a complete version, so the read always
  // finds >= m blocks at some version and returns a legal value.
  ClusterConfig config = make_config(8, 5);
  config.net.jitter = sim::kDefaultDelta;  // desynchronize deliveries
  Cluster cluster(config, 8);
  Rng rng(8);
  const auto v1 = random_stripe(5, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, v1));

  // Writer (with GC) and recovery-prone reader race.
  const auto v2 = random_stripe(5, rng);
  std::optional<Coordinator::StripeOutcome> read_result;
  bool write_done = false;
  cluster.coordinator(1).write_stripe(0, v2, [&](auto) { write_done = true; });
  cluster.coordinator(2).read_stripe(
      0, [&](Coordinator::StripeOutcome r) { read_result = std::move(r); });
  cluster.simulator().run_until_idle();
  EXPECT_TRUE(write_done);
  ASSERT_TRUE(read_result.has_value());
  if (read_result->ok()) {
    EXPECT_TRUE(**read_result == v1 || **read_result == v2);
  }
  EXPECT_EQ(cluster.read_stripe(3, 0), v2);
}

TEST(ProtocolEdgeTest, ManyStripesManyCoordinatorsNoInterference) {
  // Register instances share no state (§4): heavy traffic on 20 stripes
  // from 8 coordinators stays fully independent.
  Cluster cluster(make_config(8, 5), 9);
  Rng rng(9);
  std::map<StripeId, std::vector<Block>> golden;
  for (int round = 0; round < 3; ++round) {
    for (StripeId s = 0; s < 20; ++s) {
      golden[s] = random_stripe(5, rng);
      ASSERT_TRUE(cluster.write_stripe((s + round) % 8, s, golden[s]));
    }
  }
  for (const auto& [s, expected] : golden)
    EXPECT_EQ(cluster.read_stripe(s % 8, s), expected);
  EXPECT_EQ(cluster.total_coordinator_stats().aborts, 0u);
}

}  // namespace
}  // namespace fabec::core
