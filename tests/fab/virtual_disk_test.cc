#include "fab/virtual_disk.h"

#include <map>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fab/workload.h"
#include "hist/history.h"

namespace fabec::fab {
namespace {

constexpr std::size_t kBlockSize = 64;

struct Fixture {
  explicit Fixture(std::uint64_t blocks = 40,
                   Layout layout = Layout::kRotating, std::uint64_t seed = 1)
      : cluster(make_cluster_config(), seed),
        disk(&cluster, VirtualDiskConfig{blocks, layout}) {}

  static core::ClusterConfig make_cluster_config() {
    core::ClusterConfig config;
    config.n = 8;
    config.m = 5;
    config.block_size = kBlockSize;
    return config;
  }

  core::Cluster cluster;
  VirtualDisk disk;
};

TEST(VirtualDiskTest, FreshDiskReadsZeros) {
  Fixture f;
  for (Lba lba : {0ULL, 17ULL, 39ULL})
    EXPECT_EQ(f.disk.read_sync(lba), zero_block(kBlockSize));
}

TEST(VirtualDiskTest, WriteReadRoundTrip) {
  Fixture f;
  Rng rng(1);
  std::map<Lba, Block> golden;
  for (Lba lba = 0; lba < 40; lba += 3) {
    golden[lba] = random_block(rng, kBlockSize);
    ASSERT_TRUE(f.disk.write_sync(lba, golden[lba]));
  }
  for (const auto& [lba, expected] : golden)
    EXPECT_EQ(f.disk.read_sync(lba), expected) << "lba " << lba;
}

TEST(VirtualDiskTest, OverwritesStick) {
  Fixture f;
  Rng rng(2);
  const Lba lba = 13;
  for (int round = 0; round < 4; ++round) {
    const Block b = random_block(rng, kBlockSize);
    ASSERT_TRUE(f.disk.write_sync(lba, b));
    EXPECT_EQ(f.disk.read_sync(lba), b);
  }
}

TEST(VirtualDiskTest, RangeIoRoundTrip) {
  Fixture f;
  Rng rng(3);
  std::vector<Block> data;
  for (int i = 0; i < 12; ++i) data.push_back(random_block(rng, kBlockSize));
  ASSERT_TRUE(f.disk.write_range_sync(7, data));
  const auto read = f.disk.read_range_sync(7, 12);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, data);
  // Blocks outside the range untouched.
  EXPECT_EQ(f.disk.read_sync(6), zero_block(kBlockSize));
  EXPECT_EQ(f.disk.read_sync(19), zero_block(kBlockSize));
}

TEST(VirtualDiskTest, FullStripeSpanUsesStripeWrite) {
  // Linear layout: blocks [5, 10) are exactly stripe 1. The write must go
  // through one write-stripe operation, not five block writes.
  Fixture f(40, Layout::kLinear);
  Rng rng(4);
  std::vector<Block> data;
  for (int i = 0; i < 5; ++i) data.push_back(random_block(rng, kBlockSize));
  ASSERT_TRUE(f.disk.write_range_sync(5, data));
  const auto stats = f.cluster.total_coordinator_stats();
  EXPECT_EQ(stats.stripe_writes, 1u);
  EXPECT_EQ(stats.block_writes, 0u);
  const auto read = f.disk.read_range_sync(5, 5);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, data);
}

TEST(VirtualDiskTest, PartialSpanUsesOneMultiBlockWrite) {
  Fixture f(40, Layout::kLinear);
  Rng rng(5);
  std::vector<Block> data{random_block(rng, kBlockSize),
                          random_block(rng, kBlockSize)};
  ASSERT_TRUE(f.disk.write_range_sync(5, data));
  const auto stats = f.cluster.total_coordinator_stats();
  EXPECT_EQ(stats.stripe_writes, 0u);
  EXPECT_EQ(stats.block_writes, 0u);
  EXPECT_EQ(stats.multi_block_writes, 1u);
}

TEST(VirtualDiskTest, SingleBlockSpanUsesBlockWrite) {
  Fixture f(40, Layout::kLinear);
  Rng rng(5);
  ASSERT_TRUE(f.disk.write_range_sync(5, {random_block(rng, kBlockSize)}));
  const auto stats = f.cluster.total_coordinator_stats();
  EXPECT_EQ(stats.block_writes, 1u);
  EXPECT_EQ(stats.multi_block_writes, 0u);
}

TEST(VirtualDiskTest, RoundRobinSpreadsCoordinators) {
  Fixture f;
  Rng rng(6);
  for (Lba lba = 0; lba < 16; ++lba)
    ASSERT_TRUE(f.disk.write_sync(lba, random_block(rng, kBlockSize)));
  // Every brick coordinated some of the 16 writes.
  std::uint32_t coordinators_used = 0;
  for (ProcessId p = 0; p < 8; ++p)
    if (f.cluster.coordinator(p).stats().block_writes > 0)
      ++coordinators_used;
  EXPECT_EQ(coordinators_used, 8u);
}

TEST(VirtualDiskTest, ExplicitCoordinatorIsHonored) {
  Fixture f;
  Rng rng(7);
  ASSERT_TRUE(f.disk.write_sync(3, random_block(rng, kBlockSize), 5));
  EXPECT_EQ(f.cluster.coordinator(5).stats().block_writes, 1u);
}

TEST(VirtualDiskTest, SkipsDeadCoordinators) {
  Fixture f;
  Rng rng(8);
  f.cluster.crash(0);
  // Round-robin must route around the dead brick.
  for (Lba lba = 0; lba < 8; ++lba)
    ASSERT_TRUE(f.disk.write_sync(lba, random_block(rng, kBlockSize)));
  EXPECT_EQ(f.cluster.coordinator(0).stats().block_writes, 0u);
}

TEST(VirtualDiskTest, SurvivesBrickFailureDuringWorkload) {
  Fixture f;
  Rng rng(9);
  std::map<Lba, Block> golden;
  for (Lba lba = 0; lba < 10; ++lba) {
    golden[lba] = random_block(rng, kBlockSize);
    ASSERT_TRUE(f.disk.write_sync(lba, golden[lba]));
  }
  f.cluster.crash(2);
  for (Lba lba = 10; lba < 20; ++lba) {
    golden[lba] = random_block(rng, kBlockSize);
    ASSERT_TRUE(f.disk.write_sync(lba, golden[lba]));
  }
  for (const auto& [lba, expected] : golden)
    EXPECT_EQ(f.disk.read_sync(lba), expected) << "lba " << lba;
}

TEST(WorkloadTest, SequentialWraps) {
  Rng rng(10);
  WorkloadConfig config;
  config.num_ops = 25;
  config.pattern = AccessPattern::kSequential;
  config.write_fraction = 0;
  const auto ops = generate_workload(config, 10, rng);
  ASSERT_EQ(ops.size(), 25u);
  for (std::size_t i = 0; i < ops.size(); ++i)
    EXPECT_EQ(ops[i].lba, i % 10);
}

TEST(WorkloadTest, UniformStaysInRange) {
  Rng rng(11);
  WorkloadConfig config;
  config.num_ops = 1000;
  config.pattern = AccessPattern::kUniform;
  for (const auto& op : generate_workload(config, 64, rng))
    EXPECT_LT(op.lba, 64u);
}

TEST(WorkloadTest, WriteFractionApproximatelyHonored) {
  Rng rng(12);
  WorkloadConfig config;
  config.num_ops = 5000;
  config.write_fraction = 0.25;
  int writes = 0;
  for (const auto& op : generate_workload(config, 64, rng)) writes += op.is_write;
  EXPECT_NEAR(writes / 5000.0, 0.25, 0.03);
}

TEST(WorkloadTest, HotspotConcentratesAccesses) {
  Rng rng(13);
  WorkloadConfig config;
  config.num_ops = 5000;
  config.pattern = AccessPattern::kHotspot;
  config.hotspot_fraction = 0.9;
  config.hotspot_blocks = 8;
  int hot = 0;
  for (const auto& op : generate_workload(config, 1000, rng))
    hot += op.lba < 8;
  EXPECT_NEAR(hot / 5000.0, 0.9, 0.03);
}

TEST(WorkloadTest, PoissonArrivalsIncrease) {
  Rng rng(14);
  WorkloadConfig config;
  config.num_ops = 100;
  config.mean_interarrival = sim::microseconds(50);
  const auto ops = generate_workload(config, 64, rng);
  for (std::size_t i = 1; i < ops.size(); ++i)
    EXPECT_GE(ops[i].at, ops[i - 1].at);
  EXPECT_GT(ops.back().at, 0);
}

TEST(LatencyRecorderTest, Percentiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.record(i);
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_EQ(rec.mean(), 50);  // (1+...+100)/100 = 50.5 truncated
  EXPECT_EQ(rec.percentile(0), 1);
  EXPECT_EQ(rec.percentile(100), 100);
  EXPECT_NEAR(static_cast<double>(rec.percentile(50)), 50.0, 1.0);
  EXPECT_NEAR(static_cast<double>(rec.percentile(99)), 99.0, 1.0);
  EXPECT_EQ(rec.max(), 100);
  rec.record(500);  // stays correct after re-sorting
  EXPECT_EQ(rec.max(), 500);
}


// --- client retries under the oracle --------------------------------------
//
// Scripted schedules on a 4-brick, m = 2 group (f = 1, quorums of 3) with a
// fixed one-way delay δ: brick 0 coordinates a write W(A) whose Modify
// reaches only some bricks before links from brick 0 are cut, brick 2
// coordinates a read R1 that runs into the partial write, and the links heal
// once R1 is done. W(A)'s retransmitted Modify then meets the ord-ts R1 left
// behind, so W(A)'s attempt aborts after its blocks left the coordinator.
// Every client call is recorded once, spanning all its attempts.

constexpr sim::Duration kDelta = sim::kDefaultDelta;

struct RetryScript {
  RetryScript() : cluster(config(), 7), disk(&cluster, disk_config()) {}

  static core::ClusterConfig config() {
    core::ClusterConfig c;
    c.n = 4;
    c.m = 2;
    c.block_size = kBlockSize;
    return c;
  }
  static VirtualDiskConfig disk_config() {
    VirtualDiskConfig c;
    c.num_blocks = 2;  // one stripe; lba 0 is its data block 0
    // A resend would come long after the scripted W(B) below.
    c.retry.max_attempts = 4;
    c.retry.initial_backoff = 200 * kDelta;
    c.retry.max_backoff = 400 * kDelta;
    return c;
  }
  static Block value(std::uint8_t fill) { return Block(kBlockSize, fill); }

  /// Starts W(A) at brick 0 and cuts brick 0's links to `cut` before its
  /// Modify round (sent at 2δ) goes out; then R1 at brick 2 runs to
  /// completion, the links heal, and the simulator runs to `until`.
  void write_partially_then_read(const std::vector<ProcessId>& cut,
                                 sim::Time until) {
    auto& sim = cluster.simulator();
    const sim::Time t0 = sim.now() + kDelta;
    sim.schedule_at(t0, [this] {
      const auto op = recorder.begin_write({0}, {value(0xA1)});
      disk.write(0, value(0xA1),
                 [this, op](VirtualDisk::WriteOutcome r) {
                   recorder.end_write(op, r.ok());
                   write_a = std::move(r);
                 },
                 /*coord=*/0);
    });
    sim.schedule_at(t0 + 3 * kDelta / 2, [this, cut] {
      for (ProcessId p : cut) cluster.network().block_one_way(0, p);
    });
    sim.schedule_at(t0 + 7 * kDelta / 2, [this] {
      const auto op = recorder.begin_read({0});
      disk.read(0,
                [this, op](VirtualDisk::BlockOutcome r) {
                  recorder.end_read(op, r.ok() ? std::vector<Block>{*r}
                                               : std::vector<Block>{});
                  read_1 = std::move(r);
                },
                /*coord=*/2);
    });
    sim.run_until_pred([this] { return read_1.has_value(); });
    for (ProcessId p : cut) cluster.network().unblock_one_way(0, p);
    sim.run_until(t0 + until);
  }

  /// A synchronous, recorded block call at `coord`.
  bool write(std::uint8_t fill, ProcessId coord) {
    const auto op = recorder.begin_write({0}, {value(fill)});
    const bool ok = disk.write_sync(0, value(fill), coord);
    recorder.end_write(op, ok);
    return ok;
  }
  std::optional<Block> read(ProcessId coord) {
    const auto op = recorder.begin_read({0});
    auto block = disk.read_sync(0, coord);
    recorder.end_read(op, block.has_value() ? std::vector<Block>{*block}
                                            : std::vector<Block>{});
    return block;
  }

  core::Cluster cluster;
  VirtualDisk disk;
  hist::Recorder recorder;
  std::optional<VirtualDisk::WriteOutcome> write_a;
  std::optional<VirtualDisk::BlockOutcome> read_1;
};

std::string violations(const hist::Recorder& recorder) {
  std::string out;
  for (const auto& v : recorder.check())
    out += v.message + "\n" + hist::format_history(v.ops);
  return out;
}

TEST(VirtualDiskRetryTest, RecoveredPartialWriteIsNeverResentAfterANewerWrite) {
  // The A, B, A shape: W(A)'s Modify lands on bricks 0 and 2 (decodable at
  // m = 2), R1 recovers and returns A, W(B) completes after R1 — so A < B —
  // and a resend of W(A) under a fresh timestamp would make a later read
  // return A again. The write must instead end inside its own call.
  RetryScript s;
  s.write_partially_then_read({1, 3}, 150 * kDelta);
  ASSERT_TRUE(s.read_1.has_value() && s.read_1->ok());
  EXPECT_EQ(**s.read_1, RetryScript::value(0xA1)) << "R1 recovered W(A)";

  ASSERT_TRUE(s.write(0xB2, /*coord=*/3));
  s.cluster.simulator().run_until_pred([&] { return s.write_a.has_value(); });
  ASSERT_TRUE(s.write_a.has_value());
  const auto r2 = s.read(/*coord=*/1);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, RetryScript::value(0xB2));
  EXPECT_EQ(violations(s.recorder), "");
  // The write-repair rolled W(A) forward, so W(A) took effect inside its
  // call: it reports OK, with no resend.
  EXPECT_TRUE(s.write_a->ok());
  EXPECT_EQ(s.cluster.coordinator(0).stats().write_repairs, 1u);
  EXPECT_EQ(s.cluster.total_coordinator_stats().block_writes, 2u);
  EXPECT_EQ(s.disk.client_stats().retries, 0u);
}

TEST(VirtualDiskRetryTest, WriteAbortedAfterItsModifyLeftIsNotRetried) {
  // W(A)'s Modify reaches brick 0 alone (not decodable), R1 rolls the stripe
  // back to nil, and W(A)'s repair recovers nil: W(A) is ⊥ after send. It
  // must not be resent, however much retry budget is left: the client's one
  // further attempt is a read of the block, which finds nil, not A.
  RetryScript s;
  s.write_partially_then_read({1, 2, 3}, 150 * kDelta);
  ASSERT_TRUE(s.read_1.has_value() && s.read_1->ok());
  EXPECT_EQ(**s.read_1, zero_block(kBlockSize));
  s.cluster.simulator().run_until_idle();
  ASSERT_TRUE(s.write_a.has_value());
  ASSERT_FALSE(s.write_a->ok());
  EXPECT_EQ(s.write_a->error(), core::OpError::kAbortedAfterSend);
  EXPECT_EQ(s.cluster.total_coordinator_stats().block_writes, 1u);
  EXPECT_EQ(s.disk.client_stats().retries, 1u);
  EXPECT_EQ(s.disk.client_stats().aborted, 1u);
  EXPECT_EQ(s.read(/*coord=*/1), zero_block(kBlockSize));
  EXPECT_EQ(violations(s.recorder), "");
}

TEST(VirtualDiskRetryTest, AbortBeforeAnyBlockLeftIsRetried) {
  // Everything brick 0 sends is lost while W(A), which it coordinates,
  // draws its timestamp and starts; W(C) at brick 1 then completes under a
  // later timestamp. Once the links heal, W(A)'s order-read is refused
  // everywhere: nothing carrying A ever left, so the client resends it, and
  // the resend succeeds.
  RetryScript s;
  auto& sim = s.cluster.simulator();
  const sim::Time t0 = sim.now() + kDelta;
  for (ProcessId p = 0; p < 4; ++p) s.cluster.network().block_one_way(0, p);
  sim.schedule_at(t0, [&s] {
    const auto op = s.recorder.begin_write({0}, {RetryScript::value(0xA1)});
    s.disk.write(0, RetryScript::value(0xA1),
                 [&s, op](VirtualDisk::WriteOutcome r) {
                   s.recorder.end_write(op, r.ok());
                   s.write_a = std::move(r);
                 },
                 /*coord=*/0);
  });
  sim.run_until(t0 + kDelta);
  ASSERT_TRUE(s.write(0xC3, /*coord=*/1));
  for (ProcessId p = 0; p < 4; ++p) s.cluster.network().unblock_one_way(0, p);
  sim.run_until_pred([&s] { return s.write_a.has_value(); });
  ASSERT_TRUE(s.write_a->ok());
  EXPECT_GE(s.disk.client_stats().retries, 1u);
  EXPECT_EQ(s.read(/*coord=*/2), RetryScript::value(0xA1));
  EXPECT_EQ(violations(s.recorder), "");
}

}  // namespace
}  // namespace fabec::fab
