// Randomized stress test: drive a cluster with concurrent operations,
// crashes, recoveries, message loss and jitter, record every operation into
// per-block histories, and verify with the Appendix B oracle that each
// history admits a conforming total order (i.e. is strictly linearizable).
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"
#include "hist/history.h"

namespace fabec::core {
namespace {

constexpr std::size_t kBlockSize = 16;

struct StressConfig {
  std::uint32_t n = 8;
  std::uint32_t m = 5;
  std::uint32_t total_bricks = 0;  ///< 0 = single group
  std::uint64_t seed = 1;
  int num_ops = 60;
  int num_stripes = 2;
  double crash_events = 4;      ///< expected crash/recover cycles
  double drop_probability = 0;  ///< network loss
  sim::Duration jitter = 0;
  sim::Duration window = 200 * sim::kDefaultDelta;
};

class StressRunner {
 public:
  explicit StressRunner(const StressConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
    ClusterConfig config;
    config.n = cfg.n;
    config.m = cfg.m;
    config.total_bricks = cfg.total_bricks;
    config.block_size = kBlockSize;
    config.net.jitter = cfg.jitter;
    config.net.drop_probability = cfg.drop_probability;
    config.coordinator.retransmit_period = sim::milliseconds(2);
    cluster_ = std::make_unique<Cluster>(config, cfg.seed);
  }

  void run() {
    schedule_operations();
    schedule_crashes();
    cluster_->simulator().run_until_idle();
    // Mark operations orphaned by a final crash.
    for (auto& op : ops_)
      if (!op->done) mark_crashed(*op);
    check_all();
  }

 private:
  struct OpRecord {
    ProcessId coord = 0;
    bool done = false;
    /// Projections of this operation onto per-block histories.
    std::vector<std::pair<hist::History*, hist::History::OpRef>> parts;
  };

  hist::History& history(StripeId stripe, BlockIndex j) {
    return histories_[{stripe, j}];
  }

  std::uint64_t seq() { return ++seq_; }

  hist::ValueId fresh_value(Block* out) {
    const hist::ValueId id = next_value_++;
    Block b = zero_block(kBlockSize);
    for (std::size_t i = 0; i < sizeof(hist::ValueId); ++i)
      b[i] = static_cast<std::uint8_t>(id >> (8 * i));
    values_[b] = id;
    *out = std::move(b);
    return id;
  }

  std::optional<hist::ValueId> value_of(const Block& b) {
    if (b == zero_block(kBlockSize)) return hist::kNil;
    auto it = values_.find(b);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  void mark_crashed(OpRecord& op) {
    const std::uint64_t s = seq();
    for (auto& [h, ref] : op.parts) h->crash(ref, s);
    op.done = true;
  }

  void schedule_operations() {
    auto& sim = cluster_->simulator();
    for (int i = 0; i < cfg_.num_ops; ++i) {
      const auto at = static_cast<sim::Duration>(
          rng_.next_below(static_cast<std::uint64_t>(cfg_.window)));
      sim.schedule_at(at, [this] { issue_random_op(); });
    }
  }

  void issue_random_op() {
    // Pick a live coordinator; skip this op if none (all crashed).
    ProcessId coord = kNoProcess;
    const std::uint32_t pool = cluster_->brick_count();
    for (std::uint32_t tries = 0; tries < pool; ++tries) {
      const auto candidate =
          static_cast<ProcessId>(rng_.next_below(pool));
      if (cluster_->processes().alive(candidate)) {
        coord = candidate;
        break;
      }
    }
    if (coord == kNoProcess) return;
    const auto stripe =
        static_cast<StripeId>(rng_.next_below(cfg_.num_stripes));
    auto record = std::make_shared<OpRecord>();
    record->coord = coord;
    ops_.push_back(record);

    switch (rng_.next_below(6)) {
      case 0: {  // write-stripe
        std::vector<Block> data;
        std::vector<hist::ValueId> ids;
        for (std::uint32_t j = 0; j < cfg_.m; ++j) {
          Block b;
          ids.push_back(fresh_value(&b));
          data.push_back(std::move(b));
        }
        const std::uint64_t s = seq();
        for (std::uint32_t j = 0; j < cfg_.m; ++j)
          record->parts.push_back(
              {&history(stripe, j), history(stripe, j).begin_write(ids[j], s)});
        cluster_->coordinator(coord).write_stripe(
            stripe, std::move(data), [this, record](auto w) {
              if (record->done) return;
              record->done = true;
              const std::uint64_t s2 = seq();
              for (auto& [h, ref] : record->parts)
                h->end_write(ref, s2, w.ok());
            });
        break;
      }
      case 1: {  // read-stripe
        const std::uint64_t s = seq();
        for (std::uint32_t j = 0; j < cfg_.m; ++j)
          record->parts.push_back(
              {&history(stripe, j), history(stripe, j).begin_read(s)});
        cluster_->coordinator(coord).read_stripe(
            stripe, [this, record](Coordinator::StripeOutcome result) {
              if (record->done) return;
              record->done = true;
              const std::uint64_t s2 = seq();
              for (std::uint32_t j = 0; j < record->parts.size(); ++j) {
                auto& [h, ref] = record->parts[j];
                if (!result.ok()) {
                  h->end_read(ref, s2, std::nullopt);
                  continue;
                }
                const auto id = value_of((*result)[j]);
                EXPECT_TRUE(id.has_value()) << "read returned unwritten data";
                h->end_read(ref, s2, id);
              }
            });
        break;
      }
      case 2: {  // write-block
        const auto j = static_cast<BlockIndex>(rng_.next_below(cfg_.m));
        Block b;
        const hist::ValueId id = fresh_value(&b);
        record->parts.push_back(
            {&history(stripe, j), history(stripe, j).begin_write(id, seq())});
        cluster_->coordinator(coord).write_block(
            stripe, j, std::move(b), [this, record](auto w) {
              if (record->done) return;
              record->done = true;
              const std::uint64_t s2 = seq();
              for (auto& [h, ref] : record->parts)
                h->end_write(ref, s2, w.ok());
            });
        break;
      }
      case 4: {  // write-blocks (multi, footnote 2)
        if (cfg_.m < 2) break;
        std::vector<BlockIndex> js{
            static_cast<BlockIndex>(rng_.next_below(cfg_.m))};
        js.push_back(static_cast<BlockIndex>(
            (js[0] + 1 + rng_.next_below(cfg_.m - 1)) % cfg_.m));
        std::vector<Block> data;
        std::vector<hist::ValueId> ids;
        for (std::size_t i = 0; i < js.size(); ++i) {
          Block b;
          ids.push_back(fresh_value(&b));
          data.push_back(std::move(b));
        }
        const std::uint64_t s = seq();
        for (std::size_t i = 0; i < js.size(); ++i)
          record->parts.push_back({&history(stripe, js[i]),
                                   history(stripe, js[i]).begin_write(ids[i], s)});
        cluster_->coordinator(coord).write_blocks(
            stripe, js, std::move(data), [this, record](auto w) {
              if (record->done) return;
              record->done = true;
              const std::uint64_t s2 = seq();
              for (auto& [h, ref] : record->parts)
                h->end_write(ref, s2, w.ok());
            });
        break;
      }
      case 5: {  // read-blocks (multi)
        if (cfg_.m < 2) break;
        auto js = std::make_shared<std::vector<BlockIndex>>();
        js->push_back(static_cast<BlockIndex>(rng_.next_below(cfg_.m)));
        js->push_back(static_cast<BlockIndex>(
            ((*js)[0] + 1 + rng_.next_below(cfg_.m - 1)) % cfg_.m));
        const std::uint64_t s = seq();
        for (BlockIndex j : *js)
          record->parts.push_back(
              {&history(stripe, j), history(stripe, j).begin_read(s)});
        cluster_->coordinator(coord).read_blocks(
            stripe, *js, [this, record](Coordinator::StripeOutcome result) {
              if (record->done) return;
              record->done = true;
              const std::uint64_t s2 = seq();
              for (std::size_t i = 0; i < record->parts.size(); ++i) {
                auto& [h, ref] = record->parts[i];
                if (!result.ok()) {
                  h->end_read(ref, s2, std::nullopt);
                  continue;
                }
                const auto id = value_of((*result)[i]);
                EXPECT_TRUE(id.has_value()) << "read returned unwritten data";
                h->end_read(ref, s2, id);
              }
            });
        break;
      }
      default: {  // read-block
        const auto j = static_cast<BlockIndex>(rng_.next_below(cfg_.m));
        record->parts.push_back(
            {&history(stripe, j), history(stripe, j).begin_read(seq())});
        cluster_->coordinator(coord).read_block(
            stripe, j, [this, record](Coordinator::BlockOutcome result) {
              if (record->done) return;
              record->done = true;
              const std::uint64_t s2 = seq();
              auto& [h, ref] = record->parts[0];
              if (!result.ok()) {
                h->end_read(ref, s2, std::nullopt);
                return;
              }
              const auto id = value_of(*result);
              EXPECT_TRUE(id.has_value()) << "read returned unwritten data";
              h->end_read(ref, s2, id);
            });
        break;
      }
    }
  }

  void schedule_crashes() {
    auto& sim = cluster_->simulator();
    const int crashes = static_cast<int>(cfg_.crash_events);
    const std::uint32_t max_f = cluster_->quorum_config().f();
    if (max_f == 0) return;
    for (int i = 0; i < crashes; ++i) {
      const auto at = static_cast<sim::Duration>(
          rng_.next_below(static_cast<std::uint64_t>(cfg_.window)));
      const auto victim =
          static_cast<ProcessId>(rng_.next_below(cluster_->brick_count()));
      const auto downtime = static_cast<sim::Duration>(
          rng_.next_below(static_cast<std::uint64_t>(30 * sim::kDefaultDelta)));
      sim.schedule_at(at, [this, victim] {
        // Respect the fault bound: crash only if fewer than f are down.
        if (cluster_->processes().alive_count() <=
            cluster_->brick_count() - f())
          return;
        // Mark this coordinator's open operations as crashed.
        for (auto& op : ops_)
          if (!op->done && op->coord == victim) mark_crashed(*op);
        cluster_->crash(victim);
      });
      sim.schedule_at(at + downtime,
                      [this, victim] { cluster_->recover_brick(victim); });
    }
  }

  std::uint32_t f() const { return cluster_->quorum_config().f(); }

  void check_all() {
    for (auto& [key, h] : histories_) {
      const auto result = hist::check_strict_linearizability(h);
      EXPECT_TRUE(result.ok)
          << "stripe " << key.first << " block " << key.second << ": "
          << result.violation << " (seed " << cfg_.seed << ")";
    }
  }

  StressConfig cfg_;
  Rng rng_;
  std::unique_ptr<Cluster> cluster_;
  std::map<std::pair<StripeId, BlockIndex>, hist::History> histories_;
  std::vector<std::shared_ptr<OpRecord>> ops_;
  std::map<Block, hist::ValueId> values_;
  hist::ValueId next_value_ = 1;
  std::uint64_t seq_ = 0;
};

class StrictLinearizabilitySeedTest : public ::testing::TestWithParam<int> {};

TEST_P(StrictLinearizabilitySeedTest, ConcurrentOpsNoFailures) {
  StressConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  cfg.crash_events = 0;
  cfg.window = 40 * sim::kDefaultDelta;  // dense: heavy concurrency
  StressRunner(cfg).run();
}

TEST_P(StrictLinearizabilitySeedTest, WithCrashRecovery) {
  StressConfig cfg;
  cfg.seed = 1000 + static_cast<std::uint64_t>(GetParam());
  cfg.crash_events = 6;
  StressRunner(cfg).run();
}

TEST_P(StrictLinearizabilitySeedTest, WithJitterAndLoss) {
  StressConfig cfg;
  cfg.seed = 2000 + static_cast<std::uint64_t>(GetParam());
  cfg.crash_events = 3;
  cfg.jitter = sim::microseconds(80);
  cfg.drop_probability = 0.05;
  StressRunner(cfg).run();
}

TEST_P(StrictLinearizabilitySeedTest, ReplicationSpecialCase) {
  StressConfig cfg;
  cfg.n = 3;
  cfg.m = 1;
  cfg.seed = 3000 + static_cast<std::uint64_t>(GetParam());
  cfg.crash_events = 4;
  cfg.jitter = sim::microseconds(40);
  StressRunner(cfg).run();
}

TEST_P(StrictLinearizabilitySeedTest, WideParity) {
  StressConfig cfg;
  cfg.n = 9;
  cfg.m = 3;
  cfg.seed = 4000 + static_cast<std::uint64_t>(GetParam());
  cfg.crash_events = 8;  // f = 3: plenty of room for churn
  StressRunner(cfg).run();
}

TEST_P(StrictLinearizabilitySeedTest, BrickPoolWithRotatedGroups) {
  StressConfig cfg;
  cfg.total_bricks = 16;
  cfg.num_stripes = 8;  // stripes land on different rotated groups
  cfg.seed = 5000 + static_cast<std::uint64_t>(GetParam());
  cfg.crash_events = 5;
  StressRunner(cfg).run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrictLinearizabilitySeedTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace fabec::core
