// The paper's key semantic distinction, demonstrated executably: LS97-style
// write-back replication implements traditional linearizability, under
// which a partial write may take effect at an ARBITRARY later time — the
// Figure 5 anomaly. The erasure-coded register implements strict
// linearizability and refuses to revive the partial write once a read has
// decided its fate. Both runs use the same failure schedule; the Appendix B
// checker passes judgment.
#include <gtest/gtest.h>

#include "baseline/ls97.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "hist/history.h"

namespace fabec {
namespace {

constexpr std::size_t kB = 64;

/// Runs Figure 5 on LS97: write1(v') reaches only replica 0 before the
/// coordinator crashes; read2 runs while 0 is down; 0 then recovers and
/// read3 runs over all three replicas. Returns (read2 value, read3 value).
std::pair<Block, Block> run_figure5_ls97() {
  baseline::Ls97Config config;
  config.n = 3;
  config.block_size = kB;
  baseline::Ls97Cluster cluster(config, 1);
  Rng rng(1);
  const Block v(kB, 0x11);
  const Block v_prime(kB, 0x22);
  EXPECT_TRUE(cluster.write_sync(1, 0, v));

  // write1(v') from replica 0: cut links 0->1 and 0->2 right before the
  // Put round leaves at 2δ, so only 0's own copy is updated; then crash 0.
  auto& sim = cluster.simulator();
  sim.schedule_at(sim.now() + 2 * sim::kDefaultDelta, [&] {
    cluster.network().block_link(0, 1);
    cluster.network().block_link(0, 2);
  });
  sim.schedule_at(sim.now() + 3 * sim::kDefaultDelta + 1,
                  [&] { cluster.crash(0); });
  cluster.write(0, 0, v_prime, [](auto) {});
  sim.run_until_idle();
  cluster.network().heal();

  // read2 while replica 0 is down: the majority {1, 2} serves it.
  const auto read2 = cluster.read_sync(1, 0);
  EXPECT_TRUE(read2.has_value());

  // Replica 0 recovers with its stale-timestamped v' copy; read3 queries
  // all three and, under LS97's highest-timestamp rule, resurrects v'.
  cluster.recover_brick(0);
  const auto read3 = cluster.read_sync(2, 0);
  EXPECT_TRUE(read3.has_value());
  return {*read2, *read3};
}

TEST(Ls97StrictnessTest, Figure5AnomalyOccursUnderLs97) {
  const auto [read2, read3] = run_figure5_ls97();
  // The anomaly: read2 returned the old value, read3 the partially written
  // one — the write "took effect" after a later read missed it.
  EXPECT_EQ(read2, Block(kB, 0x11));
  EXPECT_EQ(read3, Block(kB, 0x22));
}

TEST(Ls97StrictnessTest, CheckerFlagsTheAnomalyAsStrictViolation) {
  const auto [read2, read3] = run_figure5_ls97();

  hist::History h;
  std::uint64_t seq = 0;
  auto w1 = h.begin_write(1, ++seq);  // v
  h.end_write(w1, ++seq, true);
  auto w2 = h.begin_write(2, ++seq);  // v'
  h.crash(w2, ++seq);
  hist::ValueRegistry registry;
  registry.id_of(Block(kB, 0x11));  // -> 1
  registry.id_of(Block(kB, 0x22));  // -> 2
  auto r2 = h.begin_read(++seq);
  h.end_read(r2, ++seq, registry.id_of(read2));
  auto r3 = h.begin_read(++seq);
  h.end_read(r3, ++seq, registry.id_of(read3));

  const auto verdict = hist::check_strict_linearizability(h);
  EXPECT_FALSE(verdict.ok)
      << "LS97's history should NOT be strictly linearizable";
}

TEST(Ls97StrictnessTest, ErasureRegisterResistsTheSameSchedule) {
  // Identical schedule against the paper's register (replication as the
  // m = 1 special case): once read2 answers, read3 must agree.
  core::ClusterConfig config;
  config.n = 3;
  config.m = 1;
  config.block_size = kB;
  core::Cluster cluster(config, 1);
  const Block v(kB, 0x11);
  const Block v_prime(kB, 0x22);
  ASSERT_TRUE(cluster.write_stripe(1, 0, {v}));

  auto& sim = cluster.simulator();
  sim.schedule_at(sim.now() + 2 * sim::kDefaultDelta, [&] {
    cluster.network().block_link(0, 1);
    cluster.network().block_link(0, 2);
  });
  sim.schedule_at(sim.now() + 3 * sim::kDefaultDelta + 1,
                  [&] { cluster.crash(0); });
  cluster.coordinator(0).write_stripe(0, {v_prime}, [](auto) {});
  sim.run_until_idle();
  cluster.network().heal();

  const auto read2 = cluster.read_stripe(1, 0);
  ASSERT_TRUE(read2.has_value());

  cluster.recover_brick(0);
  const auto read3 = cluster.read_stripe(2, 0);
  ASSERT_TRUE(read3.has_value());
  EXPECT_EQ(*read3, *read2)
      << "strict linearizability: the partial write's fate was decided by "
         "read2 and may never change";
  // And it stays decided under repeated reads from every brick.
  for (ProcessId p = 0; p < 3; ++p)
    EXPECT_EQ(cluster.read_stripe(p, 0), *read2);
}

}  // namespace
}  // namespace fabec
