// Model-based testing: under SEQUENTIAL operations (each completes before
// the next starts — the common case the paper optimizes for), the register
// must track an in-memory model of the stripes exactly, no matter what
// crash/recovery churn, message loss, or configuration it runs under.
//
// One wrinkle: even sequential operations may ABORT under message loss
// (replicas drift when requests are dropped, a Modify precondition splits
// them, and the fallback store-stripe rejects). An aborted write's outcome
// is non-deterministic — it "may have taken effect... or may have no
// effect at all" (§3) — so the model keeps a SET of candidate states and
// every read must match one of them, collapsing the set (strict
// linearizability: once observed, the outcome is fixed). Successful
// operations must be in force immediately and candidates must never grow
// without bound between reads.
#include <map>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"

namespace fabec::core {
namespace {

constexpr std::size_t kB = 32;

struct ModelConfig {
  std::uint32_t n = 8;
  std::uint32_t m = 5;
  std::uint32_t total_bricks = 0;
  std::uint64_t seed = 1;
  int num_ops = 150;
  int num_stripes = 3;
  bool churn = false;            ///< crash/recover bricks between ops
  double drop_probability = 0;   ///< with retransmission masking it
  sim::Duration disk_time = 0;
};

class ModelRunner {
 public:
  explicit ModelRunner(const ModelConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
    ClusterConfig config;
    config.n = cfg.n;
    config.m = cfg.m;
    config.total_bricks = cfg.total_bricks;
    config.block_size = kB;
    config.net.drop_probability = cfg.drop_probability;
    config.disk_service_time = cfg.disk_time;
    config.coordinator.retransmit_period = sim::milliseconds(1);
    cluster_ = std::make_unique<Cluster>(config, cfg.seed);
    for (int s = 0; s < cfg.num_stripes; ++s)
      model_[s] = {std::vector<Block>(cfg.m, zero_block(kB))};
  }

  void run() {
    for (int i = 0; i < cfg_.num_ops; ++i) {
      if (cfg_.churn) maybe_churn();
      one_op();
    }
    // Final sweep: every stripe matches a candidate, then every further
    // coordinator agrees with the collapsed value.
    heal_all();
    for (auto& [stripe, candidates] : model_) {
      std::optional<std::vector<Block>> collapsed;
      for (ProcessId coord = 0; coord < cluster_->brick_count();
           coord += 3) {
        const auto seen = cluster_->read_stripe(coord, stripe);
        ASSERT_TRUE(seen.has_value());
        if (!collapsed.has_value()) {
          EXPECT_TRUE(candidates.count(*seen) > 0)
              << "stripe " << stripe << " seed " << cfg_.seed
              << ": read returned a value outside the candidate set";
          collapsed = *seen;
        } else {
          EXPECT_EQ(*seen, *collapsed)
              << "stripe " << stripe << " via " << coord << " seed "
              << cfg_.seed;
        }
      }
    }
  }

 private:
  void heal_all() {
    for (ProcessId p = 0; p < cluster_->brick_count(); ++p)
      cluster_->recover_brick(p);
  }

  void maybe_churn() {
    const std::uint32_t f = cluster_->quorum_config().f();
    if (f == 0) return;
    if (rng_.chance(0.15)) {
      // Keep at most f down so every operation can complete.
      if (cluster_->processes().alive_count() >
          cluster_->brick_count() - f) {
        cluster_->crash(
            static_cast<ProcessId>(rng_.next_below(cluster_->brick_count())));
      }
    }
    if (rng_.chance(0.15)) {
      for (ProcessId p = 0; p < cluster_->brick_count(); ++p)
        if (!cluster_->processes().alive(p)) {
          cluster_->recover_brick(p);
          break;
        }
    }
  }

  ProcessId live_coordinator() {
    for (;;) {
      const auto candidate =
          static_cast<ProcessId>(rng_.next_below(cluster_->brick_count()));
      if (cluster_->processes().alive(candidate)) return candidate;
    }
  }

  void one_op() {
    const auto stripe =
        static_cast<StripeId>(rng_.next_below(cfg_.num_stripes));
    Candidates& expected = model_[stripe];
    const ProcessId coord = live_coordinator();
    switch (rng_.next_below(6)) {
      case 0: {  // write-stripe
        std::vector<Block> data;
        for (std::uint32_t j = 0; j < cfg_.m; ++j)
          data.push_back(random_block(rng_, kB));
        if (cluster_->write_stripe(coord, stripe, data)) {
          expected = {data};  // in force immediately
        } else {
          expected.insert(data);  // ⊥: may or may not have taken effect
        }
        break;
      }
      case 1: {  // read-stripe
        const auto seen = cluster_->read_stripe(coord, stripe);
        if (!seen.has_value()) break;  // aborted read: no information
        ASSERT_TRUE(expected.count(*seen) > 0)
            << "stripe " << stripe << " seed " << cfg_.seed;
        expected = {*seen};  // the read fixed the outcome, permanently
        break;
      }
      case 2: {  // write-block, alternating with its §5.2 delta form
        const auto j = static_cast<BlockIndex>(rng_.next_below(cfg_.m));
        const Block b = random_block(rng_, kB);
        const bool ok = ++block_writes_ % 2 == 0
                            ? cluster_->write_blocks(coord, stripe, {j}, {b})
                            : cluster_->write_block(coord, stripe, j, b);
        Candidates next;
        for (auto c : expected) {
          if (!ok) next.insert(c);  // "no effect" outcome stays possible
          c[j] = b;
          next.insert(c);  // "took effect" outcome
        }
        // Success: the write is in force on every possible prior state;
        // failure: both outcomes stay possible per prior state.
        expected = std::move(next);
        break;
      }
      case 3: {  // read-block
        const auto j = static_cast<BlockIndex>(rng_.next_below(cfg_.m));
        const auto seen = cluster_->read_block(coord, stripe, j);
        if (!seen.has_value()) break;
        Candidates matching;
        for (const auto& c : expected)
          if (c[j] == *seen) matching.insert(c);
        ASSERT_FALSE(matching.empty())
            << "stripe " << stripe << " j " << j << " seed " << cfg_.seed
            << ": read outside the candidate set";
        expected = std::move(matching);
        break;
      }
      case 4: {  // write-blocks
        if (cfg_.m < 2) return;
        std::vector<BlockIndex> js{
            static_cast<BlockIndex>(rng_.next_below(cfg_.m))};
        js.push_back(static_cast<BlockIndex>(
            (js[0] + 1 + rng_.next_below(cfg_.m - 1)) % cfg_.m));
        std::vector<Block> blocks{random_block(rng_, kB),
                                  random_block(rng_, kB)};
        const bool ok = cluster_->write_blocks(coord, stripe, js, blocks);
        Candidates next;
        for (auto c : expected) {
          if (!ok) next.insert(c);
          c[js[0]] = blocks[0];
          c[js[1]] = blocks[1];
          next.insert(c);  // multi-block writes are all-or-nothing
        }
        expected = std::move(next);
        break;
      }
      default: {  // read-blocks
        if (cfg_.m < 2) return;
        std::vector<BlockIndex> js{0, cfg_.m - 1};
        const auto seen = cluster_->read_blocks(coord, stripe, js);
        if (!seen.has_value()) break;
        Candidates matching;
        for (const auto& c : expected)
          if (c[0] == (*seen)[0] && c[cfg_.m - 1] == (*seen)[1])
            matching.insert(c);
        ASSERT_FALSE(matching.empty())
            << "stripe " << stripe << " seed " << cfg_.seed;
        expected = std::move(matching);
        break;
      }
    }
  }

  ModelConfig cfg_;
  Rng rng_;
  std::uint64_t block_writes_ = 0;
  std::unique_ptr<Cluster> cluster_;
  using Candidates = std::set<std::vector<Block>>;
  std::map<StripeId, Candidates> model_;
};

class ModelBasedTest : public ::testing::TestWithParam<int> {};

TEST_P(ModelBasedTest, FailureFree) {
  ModelConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  ModelRunner(cfg).run();
}

TEST_P(ModelBasedTest, WithCrashChurn) {
  ModelConfig cfg;
  cfg.seed = 100 + static_cast<std::uint64_t>(GetParam());
  cfg.churn = true;
  ModelRunner(cfg).run();
}

TEST_P(ModelBasedTest, WithMessageLoss) {
  ModelConfig cfg;
  cfg.seed = 200 + static_cast<std::uint64_t>(GetParam());
  cfg.drop_probability = 0.15;
  ModelRunner(cfg).run();
}

TEST_P(ModelBasedTest, DeltaWritesOverBrickPool) {
  ModelConfig cfg;
  cfg.seed = 300 + static_cast<std::uint64_t>(GetParam());
  cfg.total_bricks = 12;
  cfg.churn = true;
  ModelRunner(cfg).run();
}

TEST_P(ModelBasedTest, DiskBoundWithChurn) {
  ModelConfig cfg;
  cfg.seed = 400 + static_cast<std::uint64_t>(GetParam());
  cfg.disk_time = 3 * sim::kDefaultDelta;
  cfg.churn = true;
  cfg.num_ops = 80;
  ModelRunner(cfg).run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelBasedTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace fabec::core
