// Crash, recovery, partition, and message-loss behaviour of the register.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"

namespace fabec::core {
namespace {

constexpr std::size_t kBlockSize = 64;

ClusterConfig make_config(std::uint32_t n, std::uint32_t m) {
  ClusterConfig config;
  config.n = n;
  config.m = m;
  config.block_size = kBlockSize;
  return config;
}

std::vector<Block> random_stripe(std::uint32_t m, Rng& rng) {
  std::vector<Block> stripe;
  for (std::uint32_t i = 0; i < m; ++i)
    stripe.push_back(random_block(rng, kBlockSize));
  return stripe;
}

TEST(RegisterFailureTest, ToleratesFCrashedReplicas) {
  // n=8, m=5 tolerates f=1; n=9, m=3 tolerates f=3.
  for (auto [n, m] : {std::pair{8u, 5u}, std::pair{9u, 3u}}) {
    Cluster cluster(make_config(n, m));
    Rng rng(1);
    const std::uint32_t f = cluster.quorum_config().f();
    for (std::uint32_t i = 0; i < f; ++i) cluster.crash(n - 1 - i);
    const auto stripe = random_stripe(m, rng);
    EXPECT_TRUE(cluster.write_stripe(0, 0, stripe)) << "n=" << n;
    EXPECT_EQ(cluster.read_stripe(1, 0), stripe);
    EXPECT_TRUE(cluster.write_block(0, 0, 0, stripe[0]));
    EXPECT_EQ(cluster.read_block(2 % n, 0, 0), stripe[0]);
  }
}

TEST(RegisterFailureTest, CrashedDataTargetUsesDegradedRead) {
  // Reading block j while p_j is down cannot use the fast path. With a
  // clean quorum (one common complete version, no write in flight) the
  // coordinator takes the degraded-read path: validated probes to a repair
  // plan's sources, reconstruction, and NO recovery write-back (DESIGN.md
  // §14) — the old behavior ran the full recovery protocol here.
  Cluster cluster(make_config(8, 5));
  Rng rng(2);
  const auto stripe = random_stripe(5, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  cluster.crash(3);
  EXPECT_EQ(cluster.read_block(0, 0, 3), stripe[3]);
  const auto stats = cluster.total_coordinator_stats();
  EXPECT_GE(stats.degraded_reads, 1u);
  EXPECT_EQ(stats.recoveries_started, 0u);
}

TEST(RegisterFailureTest, RecoveredBrickRejoinsSeamlessly) {
  Cluster cluster(make_config(8, 5));
  Rng rng(3);
  const auto v1 = random_stripe(5, rng);
  const auto v2 = random_stripe(5, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, v1));
  cluster.crash(7);
  ASSERT_TRUE(cluster.write_stripe(1, 0, v2));  // while 7 is down
  cluster.recover_brick(7);
  // 7 serves again; consecutive quorums need not contain the same bricks
  // (§1.3), so reads keep working and 7 can even coordinate.
  EXPECT_EQ(cluster.read_stripe(7, 0), v2);
}

TEST(RegisterFailureTest, CoordinatorCrashMidWriteIsResolvedByNextRead) {
  // The central strict-linearizability scenario: a write coordinator
  // crashes between the Order and Write phases (or mid-Write). The next
  // read must return a consistent value — either the old or the new stripe
  // — and repair the register so the answer never changes afterwards.
  Cluster cluster(make_config(8, 5));
  Rng rng(4);
  const auto old_stripe = random_stripe(5, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, old_stripe));

  const auto new_stripe = random_stripe(5, rng);
  bool write_done = false;
  cluster.coordinator(1).write_stripe(0, new_stripe,
                                      [&](auto) { write_done = true; });
  // Crash the coordinator after the Order phase has been sent but before
  // the operation can complete (runs for ~1 one-way delay only).
  cluster.simulator().run_for(sim::kDefaultDelta);
  cluster.crash(1);
  cluster.simulator().run_until_idle();
  EXPECT_FALSE(write_done);  // partial operation: callback never fires

  const auto seen = cluster.read_stripe(2, 0);
  ASSERT_TRUE(seen.has_value());
  EXPECT_TRUE(*seen == old_stripe || *seen == new_stripe);
  // The read's write-back fixed the fate: every later read agrees.
  for (ProcessId coord : {3u, 4u, 5u}) {
    cluster.recover_brick(1);
    EXPECT_EQ(cluster.read_stripe(coord, 0), *seen);
  }
}

TEST(RegisterFailureTest, PartialWriteRolledForwardWhenQuorumReached) {
  // If the Write phase reached a full quorum before the coordinator died,
  // the value is recoverable and the next read returns the NEW value.
  Cluster cluster(make_config(8, 5));
  Rng rng(5);
  const auto old_stripe = random_stripe(5, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, old_stripe));
  const auto new_stripe = random_stripe(5, rng);
  bool cb_fired = false;
  cluster.coordinator(1).write_stripe(0, new_stripe,
                                      [&](auto) { cb_fired = true; });
  // Let the Write messages land at every replica (3 one-way delays: Order
  // out, Order replies back, Write out) but crash the coordinator before
  // the Write replies return at 4δ.
  cluster.simulator().run_for(3 * sim::kDefaultDelta + 1);
  cluster.crash(1);
  cluster.simulator().run_until_idle();
  EXPECT_FALSE(cb_fired);
  EXPECT_EQ(cluster.read_stripe(2, 0), new_stripe);
}

TEST(RegisterFailureTest, PartialWriteRolledBackWhenBarelyStarted) {
  // If the coordinator died before any replica stored the new value, the
  // next read returns the OLD value.
  Cluster cluster(make_config(8, 5));
  Rng rng(6);
  const auto old_stripe = random_stripe(5, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, old_stripe));
  const auto new_stripe = random_stripe(5, rng);
  cluster.coordinator(1).write_stripe(0, new_stripe, [](auto) {});
  // Crash before even the Order messages are delivered.
  cluster.crash(1);
  cluster.simulator().run_until_idle();
  EXPECT_EQ(cluster.read_stripe(2, 0), old_stripe);
}

TEST(RegisterFailureTest, Figure5ScenarioDoesNotReviveOldValue) {
  // Figure 5 with replication (m=1, n=3): write1(v') reaches only replica
  // `a`, the coordinator crashes, read2 (from b, c's side) returns v. Once
  // v was returned, v' must NEVER surface later, even after `a` recovers.
  Cluster cluster(make_config(3, 1));
  Rng rng(7);
  const Block v = random_block(rng, kBlockSize);
  const Block v_prime = random_block(rng, kBlockSize);
  ASSERT_TRUE(cluster.write_stripe(0, 0, {v}));

  // write1(v'): crash brick 0 mid-protocol; run only until the Order round
  // is done and the first Write message is in flight.
  cluster.coordinator(0).write_stripe(0, {v_prime}, [](auto) {});
  cluster.simulator().run_for(3 * sim::kDefaultDelta);
  cluster.crash(0);
  cluster.simulator().run_until_idle();

  // read2 via brick 1.
  const auto read2 = cluster.read_stripe(1, 0);
  ASSERT_TRUE(read2.has_value());

  // `a` recovers; read3 must agree with read2 (strict linearizability): the
  // partial write's fate was decided by read2's write-back.
  cluster.recover_brick(0);
  const auto read3 = cluster.read_stripe(2, 0);
  ASSERT_TRUE(read3.has_value());
  EXPECT_EQ(*read3, *read2);
  const auto read4 = cluster.read_stripe(0, 0);
  EXPECT_EQ(*read4, *read2);
}

TEST(RegisterFailureTest, MessageLossIsMaskedByRetransmission) {
  ClusterConfig config = make_config(8, 5);
  config.net.drop_probability = 0.25;
  config.coordinator.retransmit_period = sim::milliseconds(1);
  Cluster cluster(config, /*seed=*/8);
  Rng rng(8);
  for (int round = 0; round < 10; ++round) {
    const auto stripe = random_stripe(5, rng);
    // Lossy networks may abort (a retransmitted request can race its own
    // first copy), but the common case succeeds and reads stay consistent.
    if (cluster.write_stripe(round % 8, 0, stripe)) {
      const auto seen = cluster.read_stripe((round + 1) % 8, 0);
      ASSERT_TRUE(seen.has_value());
      EXPECT_EQ(*seen, stripe);
    }
  }
  EXPECT_GT(cluster.network().stats().messages_dropped, 0u);
}

TEST(RegisterFailureTest, MinorityPartitionBlocksNothing) {
  // Partitioning f bricks away leaves a full quorum connected: operations
  // coordinated inside the majority side still complete.
  Cluster cluster(make_config(9, 3));  // f = 3
  Rng rng(9);
  cluster.network().partition({6, 7, 8});
  const auto stripe = random_stripe(3, rng);
  EXPECT_TRUE(cluster.write_stripe(0, 0, stripe));
  EXPECT_EQ(cluster.read_stripe(1, 0), stripe);
}

TEST(RegisterFailureTest, HealedPartitionCatchesUpViaQuorums) {
  Cluster cluster(make_config(9, 3));
  Rng rng(10);
  cluster.network().partition({6, 7, 8});
  const auto stripe = random_stripe(3, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  cluster.network().heal();
  // A coordinator from the formerly isolated side reads the new value.
  EXPECT_EQ(cluster.read_stripe(7, 0), stripe);
}

TEST(RegisterFailureTest, AllCrashThenQuorumRecoversAndServes) {
  // §6: "our algorithm can tolerate the simultaneous crash of all
  // processes, and makes progress whenever an m-quorum of processes come
  // back up".
  Cluster cluster(make_config(8, 5));
  Rng rng(11);
  const auto stripe = random_stripe(5, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  for (ProcessId p = 0; p < 8; ++p) cluster.crash(p);
  cluster.simulator().run_until_idle();
  // Recover exactly a quorum (7 of 8).
  for (ProcessId p = 0; p < 7; ++p) cluster.recover_brick(p);
  EXPECT_EQ(cluster.read_stripe(0, 0), stripe);
  const auto stripe2 = random_stripe(5, rng);
  EXPECT_TRUE(cluster.write_stripe(1, 0, stripe2));
  EXPECT_EQ(cluster.read_stripe(2, 0), stripe2);
}

TEST(RegisterFailureTest, ConcurrentWritesToSameStripeMayAbortButStayConsistent) {
  // §3: operations may abort under genuine write-write concurrency; aborts
  // must not damage consistency.
  Cluster cluster(make_config(8, 5));
  Rng rng(12);
  const auto a = random_stripe(5, rng);
  const auto b = random_stripe(5, rng);
  int completed = 0, succeeded = 0;
  cluster.coordinator(0).write_stripe(0, a, [&](auto r) {
    ++completed;
    succeeded += r.ok();
  });
  cluster.coordinator(1).write_stripe(0, b, [&](auto r) {
    ++completed;
    succeeded += r.ok();
  });
  cluster.simulator().run_until_idle();
  EXPECT_EQ(completed, 2);
  const auto seen = cluster.read_stripe(2, 0);
  ASSERT_TRUE(seen.has_value());
  // Whatever happened, the register holds one of the two stripes (or, if
  // both aborted without effect, the initial zeros).
  const std::vector<Block> zeros(5, zero_block(kBlockSize));
  EXPECT_TRUE(*seen == a || *seen == b || (succeeded == 0 && *seen == zeros));
}

TEST(RegisterFailureTest, ReadDuringWriteInProgressDetectsPartialState) {
  // A read racing a write either aborts or returns the old/new value;
  // never a torn stripe.
  Cluster cluster(make_config(8, 5));
  Rng rng(13);
  const auto old_stripe = random_stripe(5, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, old_stripe));
  const auto new_stripe = random_stripe(5, rng);

  bool write_ok = false;
  std::optional<Coordinator::StripeOutcome> read_result;
  cluster.coordinator(0).write_stripe(0, new_stripe,
                                      [&](auto r) { write_ok = r.ok(); });
  // Issue the read one delta later so it lands mid-write.
  cluster.simulator().schedule_after(sim::kDefaultDelta, [&] {
    cluster.coordinator(1).read_stripe(
        0, [&](Coordinator::StripeOutcome r) { read_result = std::move(r); });
  });
  cluster.simulator().run_until_idle();
  EXPECT_TRUE(write_ok);
  ASSERT_TRUE(read_result.has_value());
  if (read_result->ok()) {
    EXPECT_TRUE(**read_result == old_stripe || **read_result == new_stripe);
  }
  // Afterwards the write's value is in force.
  EXPECT_EQ(cluster.read_stripe(2, 0), new_stripe);
}

TEST(RegisterFailureTest, BlockWriteCoordinatorCrashResolved) {
  // Partial block write: coordinator dies between Order&Read and Modify.
  Cluster cluster(make_config(8, 5));
  Rng rng(14);
  auto stripe = random_stripe(5, rng);
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  const Block nb = random_block(rng, kBlockSize);
  cluster.coordinator(1).write_block(0, 2, nb, [](auto) {});
  cluster.simulator().run_for(sim::kDefaultDelta);
  cluster.crash(1);
  cluster.simulator().run_until_idle();
  const auto seen = cluster.read_stripe(2, 0);
  ASSERT_TRUE(seen.has_value());
  auto with_new = stripe;
  with_new[2] = nb;
  EXPECT_TRUE(*seen == stripe || *seen == with_new);
  cluster.recover_brick(1);
  EXPECT_EQ(cluster.read_stripe(1, 0), *seen);
}

TEST(RegisterFailureTest, RepeatedCrashRecoveryCycles) {
  Cluster cluster(make_config(8, 5));
  Rng rng(15);
  std::vector<Block> current(5, zero_block(kBlockSize));
  for (int cycle = 0; cycle < 6; ++cycle) {
    const ProcessId victim = cycle % 8;
    cluster.crash(victim);
    const auto stripe = random_stripe(5, rng);
    const ProcessId coord = (victim + 1) % 8;
    if (cluster.write_stripe(coord, 0, stripe)) current = stripe;
    cluster.recover_brick(victim);
    EXPECT_EQ(cluster.read_stripe(victim, 0), current) << "cycle " << cycle;
  }
}

}  // namespace
}  // namespace fabec::core
