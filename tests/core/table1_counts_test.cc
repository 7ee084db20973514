// Verifies the per-operation cost model of Table 1 on the instrumented
// simulator: latency (in units of the one-way delay δ), message count, disk
// reads/writes, and network payload (in units of the block size B).
//
// Conventions (matching the paper):
//   * all n replicas participate ("we pessimistically assume that all
//     replicas are involved in the execution of an operation");
//   * timestamps live in NVRAM — only block transfers touch the disk;
//   * network b/w counts block payloads only;
//   * recovery scenarios ("/S") run a single read-prev-stripe iteration.
// One deliberate deviation, also noted in EXPERIMENTS.md: for read/S the
// paper charges n+m disk reads (m for the failed fast attempt). In the
// canonical partial-write scenario the fast attempt's replicas detect the
// pending write *before* reading their block (status=false short-circuits
// line 42), so we observe n reads — the paper's figure is an upper bound.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"

namespace fabec::core {
namespace {

constexpr std::uint32_t kN = 8;
constexpr std::uint32_t kM = 5;
constexpr std::uint32_t kK = kN - kM;
constexpr std::size_t kB = 1024;  // block size B

class Table1Test : public ::testing::Test {
 protected:
  Table1Test() {
    ClusterConfig config;
    config.n = kN;
    config.m = kM;
    config.block_size = kB;
    config.coordinator.auto_gc = false;  // Table 1 does not count GC traffic
    cluster_ = std::make_unique<Cluster>(config, /*seed=*/1);
    rng_ = std::make_unique<Rng>(7);
  }

  std::vector<Block> random_stripe() {
    std::vector<Block> stripe;
    for (std::uint32_t i = 0; i < kM; ++i)
      stripe.push_back(random_block(*rng_, kB));
    return stripe;
  }

  void reset_counters() {
    cluster_->network().reset_stats();
    cluster_->reset_io_stats();
    start_ = cluster_->simulator().now();
  }

  /// Latency of the last measured section in units of δ.
  std::int64_t deltas() const {
    return (cluster_->simulator().now() - start_) / sim::kDefaultDelta;
  }
  std::uint64_t messages() const {
    return cluster_->network().stats().messages_sent;
  }
  /// Payload in units of B.
  std::uint64_t payload_blocks() const {
    return cluster_->network().stats().bytes_sent / kB;
  }
  storage::DiskStats io() const { return cluster_->total_io(); }

  /// Creates a partial write: coordinator 1 completes the Order phase for a
  /// new timestamp but crashes before any Write message is sent, leaving
  /// ord-ts > max-ts(log) on every replica.
  void make_partial_write() {
    cluster_->coordinator(1).write_stripe(0, random_stripe(), [](auto) {});
    // Order delivered at δ, replies at 2δ, Write would go out at 2δ.
    cluster_->simulator().run_for(sim::kDefaultDelta + 1);
    cluster_->crash(1);
    cluster_->simulator().run_until_idle();
    cluster_->recover_brick(1);  // brick is back; the write stays partial
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Rng> rng_;
  sim::Time start_ = 0;
};

TEST_F(Table1Test, StripeReadFastPath) {
  ASSERT_TRUE(cluster_->write_stripe(0, 0, random_stripe()));
  reset_counters();
  ASSERT_TRUE(cluster_->read_stripe(0, 0).has_value());
  EXPECT_EQ(deltas(), 2);                     // 2δ
  EXPECT_EQ(messages(), 2 * kN);              // 2n
  EXPECT_EQ(io().disk_reads, kM);             // m
  EXPECT_EQ(io().disk_writes, 0u);            // 0
  EXPECT_EQ(payload_blocks(), kM);            // mB
}

TEST_F(Table1Test, StripeWrite) {
  reset_counters();
  ASSERT_TRUE(cluster_->write_stripe(0, 0, random_stripe()));
  EXPECT_EQ(deltas(), 4);                     // 4δ
  EXPECT_EQ(messages(), 4 * kN);              // 4n
  EXPECT_EQ(io().disk_reads, 0u);             // 0
  EXPECT_EQ(io().disk_writes, kN);            // n
  EXPECT_EQ(payload_blocks(), kN);            // nB
}

TEST_F(Table1Test, StripeReadWithRecovery) {
  ASSERT_TRUE(cluster_->write_stripe(0, 0, random_stripe()));
  make_partial_write();
  reset_counters();
  ASSERT_TRUE(cluster_->read_stripe(2, 0).has_value());
  EXPECT_EQ(deltas(), 6);                     // 6δ
  EXPECT_EQ(messages(), 6 * kN);              // 6n
  // Paper: n+m (m charged to the failed fast attempt); see header comment.
  EXPECT_EQ(io().disk_reads, kN);
  EXPECT_EQ(io().disk_writes, kN);            // n
  // Paper: (2n+m)B; the fast attempt moved no blocks here, so 2nB.
  EXPECT_EQ(payload_blocks(), 2 * kN);
  EXPECT_EQ(cluster_->total_coordinator_stats().recovery_iterations, 1u);
}

TEST_F(Table1Test, BlockReadFastPath) {
  ASSERT_TRUE(cluster_->write_stripe(0, 0, random_stripe()));
  reset_counters();
  ASSERT_TRUE(cluster_->read_block(0, 0, 2).has_value());
  EXPECT_EQ(deltas(), 2);                     // 2δ
  EXPECT_EQ(messages(), 2 * kN);              // 2n
  EXPECT_EQ(io().disk_reads, 1u);             // 1
  EXPECT_EQ(io().disk_writes, 0u);            // 0
  EXPECT_EQ(payload_blocks(), 1u);            // B
}

TEST_F(Table1Test, BlockWriteFastPath) {
  ASSERT_TRUE(cluster_->write_stripe(0, 0, random_stripe()));
  reset_counters();
  ASSERT_TRUE(cluster_->write_block(0, 0, 2, random_block(*rng_, kB)));
  EXPECT_EQ(deltas(), 4);                     // 4δ
  EXPECT_EQ(messages(), 4 * kN);              // 4n
  EXPECT_EQ(io().disk_reads, kK + 1);         // k+1
  EXPECT_EQ(io().disk_writes, kK + 1);        // k+1
  EXPECT_EQ(payload_blocks(), 2 * kN + 1);    // (2n+1)B
  EXPECT_EQ(cluster_->total_coordinator_stats().fast_block_write_hits, 1u);
}

TEST_F(Table1Test, BlockReadWithRecovery) {
  ASSERT_TRUE(cluster_->write_stripe(0, 0, random_stripe()));
  make_partial_write();
  reset_counters();
  ASSERT_TRUE(cluster_->read_block(2, 0, 1).has_value());
  EXPECT_EQ(deltas(), 6);                     // 6δ
  EXPECT_EQ(messages(), 6 * kN);              // 6n
  // Paper: n+1 (the fast attempt's single block read); status=false
  // short-circuits it here, so n.
  EXPECT_EQ(io().disk_reads, kN);
  EXPECT_EQ(io().disk_writes, kN);            // n
  EXPECT_EQ(payload_blocks(), 2 * kN);        // paper: (2n+1)B
}

TEST_F(Table1Test, OrderOnlyPartialWriteIsSupersededOnTheFastPath) {
  // A partial write that completed only its Order phase does NOT force a
  // later block write off the fast path: the new operation carries a higher
  // timestamp, so every status check passes and the dangling intention is
  // simply superseded (rolled back by being overwritten).
  ASSERT_TRUE(cluster_->write_stripe(0, 0, random_stripe()));
  make_partial_write();
  reset_counters();
  ASSERT_TRUE(cluster_->write_block(2, 0, 1, random_block(*rng_, kB)));
  EXPECT_EQ(deltas(), 4);
  EXPECT_EQ(messages(), 4 * kN);
  EXPECT_EQ(cluster_->total_coordinator_stats().fast_block_write_hits, 1u);
}

TEST_F(Table1Test, BlockWriteSlowPath) {
  // Executable write/S scenario: the target data brick p_j is down, so the
  // fast attempt cannot obtain p_j's block and the write falls back to
  // read-prev-stripe + store-stripe (lines 83-87).
  //
  // The paper's write/S row (8δ, 8n, k+n+1 disk I/Os) charges a fully
  // executed fast attempt (Order&Read + Modify) on top of recovery. In any
  // executable schedule the fast attempt short-circuits before Modify
  // (here: p_j did not reply — 6δ), or a partially applied Modify makes the
  // same-timestamp store-stripe abort and the client retries (see the
  // cascading-partial-writes test). The paper's row is thus an upper bound;
  // EXPERIMENTS.md discusses the deviation.
  ASSERT_TRUE(cluster_->write_stripe(0, 0, random_stripe()));
  cluster_->crash(1);  // p_j for j = 1
  reset_counters();
  ASSERT_TRUE(cluster_->write_block(2, 0, 1, random_block(*rng_, kB)));
  EXPECT_EQ(deltas(), 6);  // Order&Read (2δ) + Order&Read ALL (2δ) + Write (2δ)
  // Three rounds of n requests; the crashed brick never answers.
  EXPECT_EQ(messages(), 3 * (2 * kN - 1));
  EXPECT_EQ(io().disk_reads, kN - 1);   // one read-prev reply per live brick
  EXPECT_EQ(io().disk_writes, kN - 1);  // store-stripe at every live brick
  EXPECT_EQ(cluster_->total_coordinator_stats().slow_block_writes, 1u);
}

TEST_F(Table1Test, CascadingPartialBlockWritesAreRolledBack) {
  // Two block writes in a row leave partially applied Modify rounds behind
  // (the coordinator crashes mid-Modify; a link failure hides the Modify
  // from the other data bricks). A subsequent write observes the torn state
  // and aborts; the next read walks the version history back to the last
  // complete write and rolls both partial writes back, permanently.
  const auto original = random_stripe();
  ASSERT_TRUE(cluster_->write_stripe(0, 0, original));
  auto& sim = cluster_->simulator();

  // Partial write #1: coordinator 7 writes block 0; its Modify reaches only
  // itself, p_0, and parities 5, 6 (links to data bricks 1-4 cut just
  // before the Modify round goes out at 2δ).
  sim.schedule_at(sim.now() + 2 * sim::kDefaultDelta, [&] {
    for (ProcessId p : {1u, 2u, 3u, 4u}) cluster_->network().block_link(7, p);
  });
  sim.schedule_at(sim.now() + 3 * sim::kDefaultDelta + 1,
                  [&] { cluster_->crash(7); });
  bool first_done = false;
  cluster_->coordinator(7).write_block(0, 0, random_block(*rng_, kB),
                                       [&](auto) { first_done = true; });
  sim.run_until_idle();
  EXPECT_FALSE(first_done);  // partial: coordinator died mid-operation
  cluster_->network().heal();
  cluster_->recover_brick(7);

  // Write #2 collides with the torn state: its Modify precondition
  // (ts_j = max-ts) splits the replicas, the partially applied Modify makes
  // the fallback store-stripe reject, and the operation aborts (⊥).
  EXPECT_FALSE(cluster_->write_block(2, 0, 0, random_block(*rng_, kB)));

  // The next read reconstructs the last complete version — the original
  // stripe — and writes it back; both partial writes are rolled back.
  const auto seen = cluster_->read_stripe(3, 0);
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(*seen, original);
  EXPECT_EQ(cluster_->read_stripe(4, 0), original);
  // Multiple read-prev-stripe iterations were needed to walk past the two
  // torn versions.
  EXPECT_GE(cluster_->total_coordinator_stats().recovery_iterations, 2u);
}

TEST_F(Table1Test, GcAddsOneMessagePerReplicaAfterCompleteWrite) {
  ClusterConfig config;
  config.n = kN;
  config.m = kM;
  config.block_size = kB;
  config.coordinator.auto_gc = true;
  Cluster cluster(config, 2);
  Rng rng(3);
  std::vector<Block> stripe;
  for (std::uint32_t i = 0; i < kM; ++i) stripe.push_back(random_block(rng, kB));
  ASSERT_TRUE(cluster.write_stripe(0, 0, stripe));
  const auto msgs_at_return = cluster.network().stats().messages_sent;
  // The Gc fan-out is asynchronous: sent at return time, no replies.
  EXPECT_EQ(msgs_at_return, 4 * kN + kN);
  cluster.simulator().run_until_idle();
  EXPECT_EQ(cluster.network().stats().messages_sent, msgs_at_return);
}

}  // namespace
}  // namespace fabec::core
