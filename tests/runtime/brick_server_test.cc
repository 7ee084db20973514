// Socket-level deployment tests: BrickServer daemons and VolumeClients in
// one process (runtime::LocalCluster), real UDP in between. Covers the
// client/brick round trip over learned source addresses, kill/restart
// persistence via journal replay (the whole quorum restarts, so surviving
// replicas can't mask a recovery bug), the fault budget, contention on one
// stripe under the strict-linearizability oracle, and close().
#include "runtime/brick_server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fab/layout.h"
#include "fab/volume_client.h"
#include "hist/history.h"
#include "runtime/local_cluster.h"

namespace fabec::runtime {
namespace {

constexpr std::uint32_t kBricks = 4;
constexpr std::uint32_t kM = 2;
constexpr std::size_t kBlockSize = 256;
constexpr std::uint64_t kNumBlocks = 16;

class BrickServerTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/fabec_bricks_" + std::to_string(::getpid()) +
           "_" + testing::UnitTest::GetInstance()->current_test_info()->name();
    cluster_ = boot_cluster(kBricks, dir_);
  }

  void TearDown() override {
    cluster_.reset();
    const std::string cmd = "rm -rf '" + dir_ + "'";
    (void)!std::system(cmd.c_str());
  }

  /// A pool of `total` bricks in groups of kBricks, stores under `dir`.
  static std::unique_ptr<LocalCluster> boot_cluster(std::uint32_t total,
                                                    const std::string& dir) {
    BrickConfig base;
    base.n = kBricks;
    base.m = kM;
    base.total_bricks = total;
    base.block_size = kBlockSize;
    auto cluster = std::make_unique<LocalCluster>(base, dir);
    std::string error;
    EXPECT_TRUE(cluster->boot(&error)) << error;
    return cluster;
  }

  void restart(ProcessId id) {
    std::string error;
    ASSERT_TRUE(cluster_->restart(id, &error)) << error;
  }

  std::unique_ptr<fab::VolumeClient> make_client(
      ProcessId id, LocalCluster* cluster = nullptr) {
    if (cluster == nullptr) cluster = cluster_.get();
    fab::VolumeClientConfig config;
    config.client_id = id;
    config.n = kBricks;
    config.m = kM;
    config.total_bricks = cluster->size();
    config.block_size = kBlockSize;
    config.num_blocks = kNumBlocks;
    config.bricks = cluster->endpoints();
    config.coordinator.op_deadline = sim::milliseconds(5000);
    config.retry.max_attempts = 4;
    config.retry.initial_backoff = sim::milliseconds(1);
    config.retry.max_backoff = sim::milliseconds(20);
    return std::make_unique<fab::VolumeClient>(std::move(config),
                                               /*seed=*/id);
  }

  static Block pattern(std::uint8_t fill) { return Block(kBlockSize, fill); }

  /// Reads a counter of `brick` on its loop thread, polling until it is
  /// nonzero or 5 s pass: a quorum completes without the slowest brick, so
  /// a brick may still be catching up.
  template <typename Read>
  static std::uint64_t eventually_nonzero(BrickServer& brick, Read read) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::uint64_t value = 0;
    for (;;) {
      brick.loop().run_sync([&] { value = read(brick.stats()); });
      if (value > 0 || std::chrono::steady_clock::now() >= deadline)
        return value;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  std::string dir_;
  std::unique_ptr<LocalCluster> cluster_;
};

TEST_F(BrickServerTest, WriteReadRoundTrip) {
  auto client = make_client(kBricks);
  for (Lba lba = 0; lba < kNumBlocks; ++lba) {
    const auto wrote =
        client->write(lba, pattern(static_cast<std::uint8_t>(lba + 1)));
    ASSERT_TRUE(wrote.ok()) << "write lba " << lba;
  }
  for (Lba lba = 0; lba < kNumBlocks; ++lba) {
    const auto read = client->read(lba);
    ASSERT_TRUE(read.ok()) << "read lba " << lba;
    EXPECT_EQ(read.value(), pattern(static_cast<std::uint8_t>(lba + 1)));
  }
  EXPECT_EQ(client->stats().ok, 2 * kNumBlocks);
  // Bricks learned the client's ephemeral address from its datagrams; every
  // reply they sent proves the reply-to-source path. A quorum completes
  // without the slowest brick, so a brick may still be catching up.
  const auto handled = [](const auto& s) { return s.requests_handled; };
  for (ProcessId id = 0; id < kBricks; ++id)
    EXPECT_GT(eventually_nonzero(*cluster_->brick(id), handled), 0u)
        << "brick " << id;
  client->close();
}

TEST_F(BrickServerTest, UnwrittenBlocksReadAsZeros) {
  auto client = make_client(kBricks);
  const auto read = client->read(3);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), Block(kBlockSize, 0));
  client->close();
}

TEST_F(BrickServerTest, TwoClientsShareOneVolume) {
  auto alice = make_client(kBricks);
  auto bob = make_client(kBricks + 1);
  ASSERT_TRUE(alice->write(5, pattern(0xAA)).ok());
  const auto read = bob->read(5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), pattern(0xAA));
  alice->close();
  bob->close();
}

TEST_F(BrickServerTest, PoolLargerThanGroupServesEveryBlock) {
  // 8 bricks in rotated groups of 4: stripes land on different groups.
  auto pool = boot_cluster(2 * kBricks, dir_ + "/pool");
  auto client = make_client(2 * kBricks, pool.get());
  for (Lba lba = 0; lba < kNumBlocks; ++lba)
    ASSERT_TRUE(
        client->write(lba, pattern(static_cast<std::uint8_t>(0x80 + lba)))
            .ok());
  for (Lba lba = 0; lba < kNumBlocks; ++lba) {
    const auto read = client->read(lba);
    ASSERT_TRUE(read.ok()) << "read lba " << lba;
    EXPECT_EQ(read.value(), pattern(static_cast<std::uint8_t>(0x80 + lba)));
  }
  const auto handled = [](const auto& s) { return s.requests_handled; };
  for (ProcessId id = 0; id < pool->size(); ++id)
    EXPECT_GT(eventually_nonzero(*pool->brick(id), handled), 0u)
        << "brick " << id << " served no group";
  client->close();
}

TEST_F(BrickServerTest, FullClusterRestartRecoversFromJournals) {
  {
    auto client = make_client(kBricks);
    for (Lba lba = 0; lba < kNumBlocks; ++lba)
      ASSERT_TRUE(
          client->write(lba, pattern(static_cast<std::uint8_t>(0x40 + lba)))
              .ok());
    client->close();
  }

  // A quorum acknowledges without the slowest brick: let every brick drain
  // its socket (bounded) before the kill, so each has a journal to replay.
  for (ProcessId id = 0; id < kBricks; ++id)
    eventually_nonzero(*cluster_->brick(id),
                       [](const auto& s) { return s.journal_appends; });
  // Kill the WHOLE quorum (no surviving replica can answer for the dead)
  // and restart every brick on its original port from its journal alone.
  for (ProcessId id = 0; id < kBricks; ++id) cluster_->stop(id);
  for (ProcessId id = 0; id < kBricks; ++id) {
    restart(id);
    EXPECT_GT(cluster_->brick(id)->stats().journal_replayed, 0u)
        << "brick " << id << " recovered nothing";
  }

  auto client = make_client(kBricks + 7);
  for (Lba lba = 0; lba < kNumBlocks; ++lba) {
    const auto read = client->read(lba);
    ASSERT_TRUE(read.ok()) << "read lba " << lba << " after restart";
    EXPECT_EQ(read.value(), pattern(static_cast<std::uint8_t>(0x40 + lba)))
        << "lba " << lba << " lost its acknowledged write";
  }
  client->close();
}

TEST_F(BrickServerTest, SingleBrickRestartRejoinsQuorum) {
  auto client = make_client(kBricks);
  ASSERT_TRUE(client->write(0, pattern(0x11)).ok());

  // The restart re-binds the brick's fixed port (SO_REUSEADDR).
  cluster_->stop(1);
  restart(1);

  // n=4, m=2 tolerates f=1: operations succeed throughout, and the
  // restarted brick serves again from its replayed state.
  ASSERT_TRUE(client->write(1, pattern(0x22)).ok());
  const auto read = client->read(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), pattern(0x11));
  client->close();
}

TEST_F(BrickServerTest, MalformedRequestNeitherKillsNorWedgesABrick) {
  // CRC-valid datagrams whose fields make no sense for the geometry, sent
  // to brick kM — a parity position of stripe 0. The brick journals each
  // mutating request before handling it, so the refusal must hold twice:
  // live, and when the restarted brick replays its journal.
  const ProcessId parity = kM;
  const std::vector<core::Message> malformed = {
      core::MultiModifyReq{0, 1, {}, std::nullopt, kLowTS, Timestamp{10, 9}},
      core::ModifyReq{0, 2, 0, Block(100), Block(100), kLowTS,
                      Timestamp{11, 9}},
  };
  EpollLoop loop(/*seed=*/3);
  std::mutex mu;
  std::vector<bool> statuses;
  DatagramMux mux(&loop, /*self=*/kBricks + 9, Endpoint{"127.0.0.1", 0},
                  [&](ProcessId, std::vector<core::Message> msgs) {
                    std::lock_guard<std::mutex> lock(mu);
                    for (const auto& m : msgs)
                      if (const auto* rep = std::get_if<core::ModifyRep>(&m))
                        statuses.push_back(rep->status);
                  });
  mux.set_peers(cluster_->endpoints());
  loop.start();
  loop.run_sync([&] {
    for (const auto& msg : malformed) mux.send(parity, msg);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (statuses.size() == malformed.size()) break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no replies";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.stop();
  for (bool status : statuses) EXPECT_FALSE(status);

  cluster_->stop(parity);
  restart(parity);
  EXPECT_GE(cluster_->brick(parity)->stats().journal_replayed,
            malformed.size());
  // With another brick down, every quorum needs the restarted one.
  cluster_->stop(kBricks - 1);
  auto client = make_client(kBricks);
  ASSERT_TRUE(client->write(0, pattern(0x5a)).ok());
  const auto read = client->read(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), pattern(0x5a));
  client->close();
}

TEST_F(BrickServerTest, StoppedBricksWithinBudgetNeverBlockIo) {
  // f = (n - m) / 2 = 1 brick down for good: every quorum still forms.
  auto client = make_client(kBricks);
  ASSERT_TRUE(client->write(2, pattern(0x33)).ok());
  cluster_->stop(kBricks - 1);
  const auto before = client->read(2);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value(), pattern(0x33));
  for (Lba lba = 0; lba < kNumBlocks; ++lba)
    ASSERT_TRUE(
        client->write(lba, pattern(static_cast<std::uint8_t>(0x60 + lba)))
            .ok())
        << "write lba " << lba << " with a brick down";
  for (Lba lba = 0; lba < kNumBlocks; ++lba) {
    const auto read = client->read(lba);
    ASSERT_TRUE(read.ok()) << "read lba " << lba << " with a brick down";
    EXPECT_EQ(read.value(), pattern(static_cast<std::uint8_t>(0x60 + lba)));
  }
  client->close();
}

TEST_F(BrickServerTest, ThreadsOnOneStripeStayStrictlyLinearizable) {
  // Several application threads share ONE client and contend on the blocks
  // of one stripe; ops that exhaust their retries abort, which the oracle
  // treats as indeterminate.
  auto client = make_client(kBricks);
  const fab::VolumeLayout layout(kNumBlocks, kM, fab::Layout::kRotating);
  std::vector<Lba> lbas;
  for (Lba lba = 0; lba < kNumBlocks; ++lba)
    if (layout.stripe_of(lba) == 0) lbas.push_back(lba);
  ASSERT_EQ(lbas.size(), kM);

  hist::Recorder recorder;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 30;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(400 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Lba lba = lbas[rng.next_below(lbas.size())];
        if (rng.next_below(2) == 0) {
          Block value = pattern(static_cast<std::uint8_t>(t + 1));
          value[0] = static_cast<std::uint8_t>(i);  // unique per (t, i)
          const auto op = recorder.begin_write({lba}, {value});
          recorder.end_write(op, client->write(lba, value).ok());
        } else {
          const auto op = recorder.begin_read({lba});
          const auto read = client->read(lba);
          recorder.end_read(op, read.ok() ? std::vector<Block>{*read}
                                          : std::vector<Block>{});
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  client->close();
  ASSERT_EQ(recorder.size(), lbas.size());
  for (const auto& v : recorder.check())
    ADD_FAILURE() << "lba " << v.key << ": " << v.message << "\n"
                  << hist::format_history(v.ops);
}

TEST_F(BrickServerTest, CloseFailsBlockedOpsAndRefusesNewOnes) {
  // Every brick down: operations block in retransmission until the 5-s
  // op_deadline — unless close() fails them first.
  for (ProcessId id = 0; id < kBricks; ++id) cluster_->stop(id);
  auto client = make_client(kBricks);
  constexpr int kThreads = 3;
  std::vector<core::OpError> errors(kThreads, core::OpError::kAborted);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto outcome = t % 2 == 0 ? client->write(t, pattern(0x55)).error()
                                      : client->read(t).error();
      errors[t] = outcome;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto closed_at = std::chrono::steady_clock::now();
  client->close();
  for (auto& t : threads) t.join();
  EXPECT_LT(std::chrono::steady_clock::now() - closed_at,
            std::chrono::seconds(2));
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(errors[t], core::OpError::kMisrouted) << "thread " << t;

  const auto sent = client->mux_stats().datagrams_sent;
  EXPECT_GT(sent, 0u);  // the blocked ops did reach the wire
  EXPECT_EQ(client->read(0).error(), core::OpError::kMisrouted);
  EXPECT_EQ(client->write(0, pattern(0x66)).error(),
            core::OpError::kMisrouted);
  EXPECT_EQ(client->mux_stats().datagrams_sent, sent);
}

}  // namespace
}  // namespace fabec::runtime
