// Fault-handling campaigns: bounded completion under quorum blackouts, the
// client retry-on-abort loop, and op-id incarnation hygiene across
// mid-phase coordinator crashes — all still checked against the strict-
// linearizability oracle. Runs under `ctest -L faults`.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "chaos/campaign.h"
#include "common/rng.h"
#include "core/cluster.h"

namespace fabec::chaos {
namespace {

constexpr std::size_t kB = 64;

std::vector<Block> random_stripe(std::uint32_t m, Rng& rng) {
  std::vector<Block> stripe;
  for (std::uint32_t i = 0; i < m; ++i) stripe.push_back(random_block(rng, kB));
  return stripe;
}

TEST(BlackoutTest, IsolatedCoordinatorTimesOutEveryOpWithinDeadline) {
  // Cut coordinator 0 off from n - m + 1 = 4 bricks: it can reach only 4
  // of 8, short of the 7-quorum, so every phase it starts is doomed. With
  // op_deadline set, every operation — read or write, block or stripe —
  // must fail with kTimeout exactly at its deadline, with no hung ops and
  // no unbounded retransmission afterwards.
  core::ClusterConfig config;
  config.n = 8;
  config.m = 5;
  config.block_size = kB;
  config.coordinator.retransmit_period = sim::milliseconds(1);
  config.coordinator.op_deadline = sim::milliseconds(2);
  core::Cluster cluster(config, 61);
  Rng rng(61);
  for (ProcessId p = 1; p <= 4; ++p) cluster.network().block_link(0, p);

  const sim::Time t0 = cluster.simulator().now();
  std::vector<std::optional<core::OpError>> errors(4);
  auto record = [&](std::size_t slot) {
    return [&errors, slot](bool ok, core::OpError e) {
      errors[slot] = ok ? std::optional<core::OpError>() : e;
    };
  };
  auto& c = cluster.coordinator(0);
  c.write_stripe(0, random_stripe(5, rng),
                 core::Coordinator::WriteOutcomeCb(
                     [&, f = record(0)](core::Coordinator::WriteOutcome w) {
                       f(w.ok(), w.ok() ? core::OpError::kAborted : w.error());
                     }));
  c.read_stripe(1, core::Coordinator::StripeOutcomeCb(
                       [&, f = record(1)](core::Coordinator::StripeOutcome r) {
                         f(r.ok(), r.ok() ? core::OpError::kAborted
                                          : r.error());
                       }));
  c.write_block(2, 0, random_block(rng, kB),
                core::Coordinator::WriteOutcomeCb(
                    [&, f = record(2)](core::Coordinator::WriteOutcome w) {
                      f(w.ok(), w.ok() ? core::OpError::kAborted : w.error());
                    }));
  c.read_block(3, 0, core::Coordinator::BlockOutcomeCb(
                         [&, f = record(3)](core::Coordinator::BlockOutcome r) {
                           f(r.ok(), r.ok() ? core::OpError::kAborted
                                            : r.error());
                         }));
  cluster.simulator().run_until_idle();

  for (std::size_t i = 0; i < errors.size(); ++i) {
    ASSERT_TRUE(errors[i].has_value()) << "op " << i << " hung";
    EXPECT_EQ(*errors[i], core::OpError::kTimeout) << "op " << i;
  }
  // A timeout fails the op at the END of its first doomed phase: the read
  // fast path must not enter recovery, the block-write fast path must not
  // fall back to the slow path — one deadline each, and the deadline event
  // is the last thing the simulator runs.
  EXPECT_EQ(cluster.total_coordinator_stats().op_timeouts, 4u);
  EXPECT_EQ(cluster.simulator().now(), t0 + sim::milliseconds(2));
  EXPECT_EQ(cluster.simulator().pending_events(), 0u);

  // Heal: the same coordinator serves again (timeouts never poison state).
  for (ProcessId p = 1; p <= 4; ++p) cluster.network().unblock_link(0, p);
  const auto stripe = random_stripe(5, rng);
  EXPECT_TRUE(cluster.write_stripe(0, 0, stripe));
  EXPECT_EQ(cluster.read_stripe(0, 0), stripe);
}

TEST(BlackoutTest, CampaignsStayLinearizableWithBoundedLatency) {
  // Quorum blackouts + deadlines over a seed sweep: strict linearizability
  // must hold (timeouts enter histories as indeterminate), some operations
  // must actually time out (the fault class isn't dead code), and no
  // attempt may take longer than a small phase-count multiple of the
  // deadline — the "no hung ops" acceptance bound.
  CampaignConfig cfg;
  cfg.op_deadline = 30 * sim::kDefaultDelta;
  cfg.nemesis.quorum_blackouts = 3;
  std::uint64_t timed_out = 0;
  for (std::uint64_t seed = 800; seed < 810; ++seed) {
    const CampaignResult r = run_campaign(cfg, seed);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.violation
                      << "\nreplay: " << replay_command(cfg, seed);
    EXPECT_GT(r.faults.quorum_blackouts, 0u);
    EXPECT_LE(r.max_attempt_latency, 10 * cfg.op_deadline)
        << "seed " << seed << ": an operation outlived its deadline budget";
    timed_out += r.ops_timed_out;
  }
  EXPECT_GT(timed_out, 0u);
}

TEST(BlackoutTest, CampaignReplayIsDeterministic) {
  CampaignConfig cfg;
  cfg.op_deadline = 30 * sim::kDefaultDelta;
  cfg.retry.max_attempts = 3;
  cfg.nemesis.quorum_blackouts = 2;
  const CampaignResult a = run_campaign(cfg, 4242);
  const CampaignResult b = run_campaign(cfg, 4242);
  EXPECT_EQ(a.history_hash, b.history_hash);
  EXPECT_EQ(a.ops_timed_out, b.ops_timed_out);
  EXPECT_EQ(a.ops_retried, b.ops_retried);
  EXPECT_EQ(a.events_run, b.events_run);
}

TEST(RetryTest, RetryOnAbortStaysLinearizableAndActuallyRetries) {
  // Contention-heavy workload so aborts happen, with a client retry budget.
  // Each logical call is ONE history operation carrying one value across
  // all its attempts, so the oracle judges what the application saw — a
  // resend that reinstalled an old value after a newer one (A, B, A) would
  // fail it. The retry loop resends only attempts that had no effect: no
  // write that aborted after its blocks left is ever resent.
  CampaignConfig cfg;
  cfg.write_fraction = 0.7;
  cfg.wide_op_fraction = 0.5;
  cfg.retry.max_attempts = 4;
  cfg.nemesis.crashes = 3;
  std::uint64_t retried = 0;
  for (std::uint64_t seed = 900; seed < 910; ++seed) {
    const CampaignResult r = run_campaign(cfg, seed);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.violation
                      << "\nreplay: " << replay_command(cfg, seed);
    EXPECT_EQ(r.retries_after_send, 0u) << "seed " << seed;
    retried += r.ops_retried;
  }
  EXPECT_GT(retried, 0u);
}

TEST(RetryTest, RetriesWithDeadlinesCompose) {
  // The full client stack at once: deadlines bound every attempt, aborts
  // are retried, timeouts are not, and the histories stay linearizable
  // under the default mixed-fault menu plus blackouts.
  CampaignConfig cfg;
  cfg.op_deadline = 40 * sim::kDefaultDelta;
  cfg.retry.max_attempts = 3;
  cfg.nemesis.quorum_blackouts = 2;
  for (std::uint64_t seed = 950; seed < 958; ++seed) {
    const CampaignResult r = run_campaign(cfg, seed);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.violation
                      << "\nreplay: " << replay_command(cfg, seed);
    EXPECT_EQ(r.faults.persistence_violations, 0u);
  }
}

TEST(IncarnationTest, MidPhaseCrashRestartWithDelayedRepliesIsClean) {
  // Op-id reuse regression: coordinators crash mid-phase and restart while
  // their old replies are still in flight (heavy jitter keeps messages in
  // the network for many δ). Randomized incarnation op ids plus the
  // expected-kind reply filter must keep every stale reply from matching —
  // a collision shows up as an oracle violation or a crash here.
  CampaignConfig cfg;
  cfg.nemesis.crashes = 5;
  cfg.nemesis.mid_phase_crashes = 4;
  cfg.nemesis.jitter_ramps = 3;
  cfg.nemesis.max_extra_jitter = 8 * sim::kDefaultDelta;
  cfg.nemesis.partitions = 0;
  cfg.nemesis.isolations = 0;
  std::uint64_t mid_phase = 0;
  for (std::uint64_t seed = 1000; seed < 1010; ++seed) {
    const CampaignResult r = run_campaign(cfg, seed);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.violation
                      << "\nreplay: " << replay_command(cfg, seed);
    mid_phase += r.faults.mid_phase_crashes;
  }
  EXPECT_GT(mid_phase, 0u);
}

}  // namespace
}  // namespace fabec::chaos
