// Fault-handling layer of the coordinator: per-phase deadlines (typed
// OpError::kTimeout outcomes, all timers cancelled), exponential retransmit
// backoff with deterministic jitter, the per-brick suspicion map that stops
// hammering silent bricks, the expected-kind reply filter, and the
// incarnation nonce that keeps op ids from colliding across coordinator
// restarts.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/timestamp.h"
#include "core/cluster.h"
#include "core/coordinator.h"
#include "core/group_layout.h"
#include "core/messages.h"
#include "erasure/codec.h"
#include "quorum/quorum.h"
#include "sim/executor.h"
#include "sim/simulator.h"

namespace fabec::core {
namespace {

constexpr std::size_t kB = 64;

std::vector<Block> random_stripe(std::uint32_t m, Rng& rng) {
  std::vector<Block> stripe;
  for (std::uint32_t i = 0; i < m; ++i) stripe.push_back(random_block(rng, kB));
  return stripe;
}

// --- standalone coordinator harness -------------------------------------
// One coordinator over a recording send function and NO bricks: every
// message is captured with its send time and nothing replies unless the
// test injects a reply itself. This exposes the exact retransmission
// schedule, which cluster-level tests cannot observe.
struct Harness {
  sim::Simulator sim;
  sim::SimulatorExecutor exec{&sim};
  GroupLayout layout;
  erasure::Codec codec;
  TimestampSource ts;
  std::vector<std::pair<sim::Time, Message>> sent;
  std::unique_ptr<Coordinator> coord;

  Harness(std::uint64_t seed, Coordinator::Options options,
          std::uint32_t n = 4, std::uint32_t m = 3)
      : sim(seed),
        layout(n, n),
        codec(m, n),
        ts(0, [this] { return sim.now(); }) {
    coord = make_coordinator(0, options, n, m);
  }

  std::unique_ptr<Coordinator> make_coordinator(ProcessId p,
                                                Coordinator::Options options,
                                                std::uint32_t n,
                                                std::uint32_t m) {
    return std::make_unique<Coordinator>(
        p, quorum::Config{n, m}, &layout, &codec, &exec, &ts,
        [this](ProcessId, Message msg) {
          sent.emplace_back(sim.now(), std::move(msg));
        },
        options);
  }

  /// Distinct times at which a message burst went out (one per round).
  std::vector<sim::Time> round_times() const {
    std::vector<sim::Time> out;
    for (const auto& [at, msg] : sent)
      if (out.empty() || out.back() != at) out.push_back(at);
    return out;
  }
};

// --- deadlines -----------------------------------------------------------

TEST(DeadlineTest, QuorumUnreachableTimesOutOnceAtDeadline) {
  // n - m + 1 = 4 bricks down: no 7-quorum exists, the Order phase can
  // never complete. The deadline must fire exactly once, exactly at
  // issue + op_deadline, deliver OpError::kTimeout, and cancel every timer
  // — the simulator must have NO events left afterwards.
  ClusterConfig config;
  config.n = 8;
  config.m = 5;
  config.block_size = kB;
  config.coordinator.retransmit_period = sim::milliseconds(1);
  config.coordinator.op_deadline = sim::milliseconds(5);
  Cluster cluster(config, 11);
  Rng rng(11);
  for (ProcessId p = 4; p < 8; ++p) cluster.crash(p);

  const sim::Time t0 = cluster.simulator().now();
  int calls = 0;
  std::optional<OpError> error;
  cluster.coordinator(0).write_stripe(
      0, random_stripe(5, rng),
      Coordinator::WriteOutcomeCb([&](Coordinator::WriteOutcome w) {
        ++calls;
        if (!w.ok()) error = w.error();
      }));
  cluster.simulator().run_until_idle();

  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(*error, OpError::kTimeout);
  // The deadline event is the LAST event: no orphaned retransmit, grace, or
  // deadline timers may outlive the operation.
  EXPECT_EQ(cluster.simulator().now(), t0 + sim::milliseconds(5));
  EXPECT_EQ(cluster.simulator().pending_events(), 0u);
  EXPECT_EQ(cluster.total_coordinator_stats().op_timeouts, 1u);

  // Liveness, not safety: once a quorum is back the same register works.
  for (ProcessId p = 4; p < 8; ++p) cluster.recover_brick(p);
  const auto stripe = random_stripe(5, rng);
  EXPECT_TRUE(cluster.write_stripe(0, 0, stripe));
  EXPECT_EQ(cluster.read_stripe(1, 0), stripe);
}

TEST(DeadlineTest, ZeroDeadlineWaitsForever) {
  // op_deadline = 0 is the paper's asynchronous model: a quorum-less
  // operation stays pending indefinitely (and resumes on recovery).
  ClusterConfig config;
  config.n = 8;
  config.m = 5;
  config.block_size = kB;
  config.coordinator.retransmit_period = sim::milliseconds(1);
  Cluster cluster(config, 12);
  Rng rng(12);
  cluster.crash(6);
  cluster.crash(7);

  std::optional<bool> result;
  cluster.coordinator(0).write_stripe(0, random_stripe(5, rng),
                                      [&](auto r) { result = r.ok(); });
  cluster.simulator().run_for(sim::milliseconds(50));
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(cluster.total_coordinator_stats().op_timeouts, 0u);
  cluster.recover_brick(6);
  cluster.simulator().run_until_pred([&] { return result.has_value(); });
  EXPECT_EQ(result, true);
}

// --- retransmit backoff --------------------------------------------------

TEST(BackoffTest, ExponentialGapsWithCapNoJitter) {
  Coordinator::Options options;
  options.retransmit_period = sim::milliseconds(1);
  options.retransmit_backoff = 2.0;
  options.retransmit_jitter = 0.0;
  options.suspect_after = 0;  // isolate backoff from suppression
  Harness h(21, options);
  h.coord->read_block(
      0, 0, Coordinator::BlockOutcomeCb([](Coordinator::BlockOutcome) {}));
  h.sim.run_for(sim::milliseconds(16));
  h.coord->drop_all_pending();

  // Initial burst at t=0, retransmits after 1, 2, 4, 4, 4 ms: the period
  // doubles each round and saturates at 4 x retransmit_period.
  const auto rounds = h.round_times();
  ASSERT_GE(rounds.size(), 5u);
  EXPECT_EQ(rounds[0], 0);
  EXPECT_EQ(rounds[1] - rounds[0], sim::milliseconds(1));
  EXPECT_EQ(rounds[2] - rounds[1], sim::milliseconds(2));
  EXPECT_EQ(rounds[3] - rounds[2], sim::milliseconds(4));
  EXPECT_EQ(rounds[4] - rounds[3], sim::milliseconds(4));
}

TEST(BackoffTest, JitteredScheduleIsDeterministicPerSeed) {
  Coordinator::Options options;
  options.retransmit_period = sim::milliseconds(1);
  options.retransmit_backoff = 2.0;
  options.retransmit_jitter = 0.1;
  options.suspect_after = 0;

  auto run = [&](std::uint64_t seed) {
    Harness h(seed, options);
    h.coord->read_block(
        0, 0, Coordinator::BlockOutcomeCb([](Coordinator::BlockOutcome) {}));
    h.sim.run_for(sim::milliseconds(16));
    h.coord->drop_all_pending();
    return h.round_times();
  };

  const auto a = run(33);
  const auto b = run(33);
  EXPECT_EQ(a, b) << "same seed must reproduce the exact schedule";

  // Jitter stays within +/-10% of the nominal 1, 2, 4, 4 ms gaps.
  ASSERT_GE(a.size(), 5u);
  const sim::Duration nominal[] = {
      sim::milliseconds(1), sim::milliseconds(2), sim::milliseconds(4),
      sim::milliseconds(4)};
  for (int i = 0; i < 4; ++i) {
    const sim::Duration gap = a[i + 1] - a[i];
    EXPECT_GE(gap, nominal[i] - nominal[i] / 10) << "gap " << i;
    EXPECT_LE(gap, nominal[i] + nominal[i] / 10) << "gap " << i;
  }
}

// --- suspicion map -------------------------------------------------------

TEST(SuspicionTest, SilentBrickIsSkippedThenReprobedAndForgiven) {
  // (4,3): f = 0, quorum = 4 — one unreachable brick stalls the operation.
  // After suspect_after missed rounds the coordinator stops sending to it
  // except for a probe every suspect_probe_period rounds; the probe that
  // lands after the link heals completes the operation, and the reply
  // clears the suspicion.
  ClusterConfig config;
  config.n = 4;
  config.m = 3;
  config.block_size = kB;
  config.coordinator.retransmit_period = sim::milliseconds(1);
  config.coordinator.retransmit_backoff = 1.0;  // fixed 1ms rounds
  config.coordinator.retransmit_jitter = 0.0;
  config.coordinator.suspect_after = 3;
  config.coordinator.suspect_probe_period = 4;
  Cluster cluster(config, 31);
  Rng rng(31);
  cluster.network().block_link(0, 3);

  std::optional<bool> result;
  cluster.coordinator(0).write_stripe(0, random_stripe(3, rng),
                                      [&](auto r) { result = r.ok(); });
  // Rounds at 1..8 ms: sends at rounds 1-2, probe at 3, suppressed 4-6,
  // probe at 7, suppressed 8 — then the link heals.
  cluster.simulator().run_for(sim::milliseconds(8) + sim::microseconds(500));
  EXPECT_FALSE(result.has_value());
  const auto mid = cluster.total_coordinator_stats();
  EXPECT_GE(mid.sends_suppressed, 3u);
  EXPECT_GE(mid.suspect_probes, 2u);

  cluster.network().unblock_link(0, 3);
  cluster.simulator().run_until_pred([&] { return result.has_value(); });
  EXPECT_EQ(result, true);

  // The reply reset the suspicion: a fresh operation must reach brick 3 in
  // its initial broadcast and complete without any further probes.
  const auto before = cluster.total_coordinator_stats();
  std::optional<bool> second;
  cluster.coordinator(0).write_stripe(0, random_stripe(3, rng),
                                      [&](auto r) { second = r.ok(); });
  cluster.simulator().run_until_pred([&] { return second.has_value(); });
  EXPECT_EQ(second, true);
  const auto after = cluster.total_coordinator_stats();
  EXPECT_EQ(after.suspect_probes, before.suspect_probes);
  EXPECT_EQ(after.sends_suppressed, before.sends_suppressed);
}

// --- reply-kind filter ---------------------------------------------------

TEST(ReplyFilterTest, KindMismatchedRepliesAreDroppedNotCrashed) {
  // Regression: a reply of the wrong message kind but a matching op id
  // (possible around coordinator restarts) used to be recorded and then
  // crash the status scan at quorum. It must be counted and ignored.
  Coordinator::Options options;
  options.retransmit_period = sim::milliseconds(10);
  Harness h(41, options);
  Rng rng(41);
  h.coord->write_stripe(0, random_stripe(3, rng),
                        Coordinator::WriteOutcomeCb(
                            [](auto) {}));
  h.sim.run_until_pred([&] { return h.sent.size() >= 4; });
  const auto* order = std::get_if<OrderReq>(&h.sent[0].second);
  ASSERT_NE(order, nullptr) << "write_stripe must open with an Order phase";
  const OpId op = order->op;

  // Garbage of the wrong kind from every brick: with the old code four
  // recorded "replies" reach quorum and the OrderRep scan dies.
  for (ProcessId p = 0; p < 4; ++p)
    h.coord->on_reply(p, Message(WriteRep{op, true}));
  EXPECT_EQ(h.coord->stats().mismatched_replies, 4u);
  const std::size_t sent_before = h.sent.size();

  // The phase is still pending and still works: genuine OrderReps complete
  // it and the coordinator moves on to the Write phase.
  for (ProcessId p = 0; p < 4; ++p)
    h.coord->on_reply(p, Message(OrderRep{op, true}));
  h.sim.run_until_pred([&] { return h.sent.size() > sent_before; });
  bool write_phase = false;
  for (std::size_t i = sent_before; i < h.sent.size(); ++i)
    write_phase |= std::holds_alternative<WriteReq>(h.sent[i].second);
  EXPECT_TRUE(write_phase);
  h.coord->drop_all_pending();
  h.sim.run_until_idle();
}

// --- incarnation nonce ---------------------------------------------------

TEST(IncarnationTest, CoordinatorsStartAtIndependentRandomOpIds) {
  Coordinator::Options options;
  auto first_op_id = [](Harness& h) {
    h.coord->read_block(
        0, 0, Coordinator::BlockOutcomeCb([](Coordinator::BlockOutcome) {}));
    const auto* req = std::get_if<ReadReq>(&h.sent[0].second);
    EXPECT_NE(req, nullptr);
    const OpId op = req == nullptr ? 0 : req->op;
    h.coord->drop_all_pending();
    h.sim.run_until_idle();
    return op;
  };

  // Two incarnations on the SAME executor (same brick restarting, or two
  // bricks sharing a loop) draw from forked streams: their op-id sequences
  // must not collide at the start.
  Harness h(51, options);
  auto second = h.make_coordinator(1, options, 4, 3);
  const OpId a = first_op_id(h);
  h.sent.clear();
  second->read_block(
      0, 0, Coordinator::BlockOutcomeCb([](Coordinator::BlockOutcome) {}));
  const auto* req = std::get_if<ReadReq>(&h.sent[0].second);
  ASSERT_NE(req, nullptr);
  const OpId b = req->op;
  second->drop_all_pending();
  h.sim.run_until_idle();

  EXPECT_NE(a, b);
  EXPECT_NE(a, 1u) << "op ids must not restart from a fixed constant";
  EXPECT_NE(b, 1u);

  // Determinism: the same seed reproduces the same nonce.
  Harness h2(51, options);
  EXPECT_EQ(first_op_id(h2), a);
}

}  // namespace
}  // namespace fabec::core
