// Unit tests for the conforming-total-order checker on hand-built
// histories, including the paper's Figure 5 counter-example.
#include "hist/history.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

namespace fabec::hist {
namespace {

class Seq {
 public:
  std::uint64_t next() { return ++seq_; }

 private:
  std::uint64_t seq_ = 0;
};

TEST(HistoryCheckerTest, EmptyHistoryIsLinearizable) {
  History h;
  EXPECT_TRUE(check_strict_linearizability(h));
}

TEST(HistoryCheckerTest, SequentialWriteReadIsLegal) {
  History h;
  Seq s;
  auto w = h.begin_write(1, s.next());
  h.end_write(w, s.next(), true);
  auto r = h.begin_read(s.next());
  h.end_read(r, s.next(), 1);
  EXPECT_TRUE(check_strict_linearizability(h));
}

TEST(HistoryCheckerTest, ReadOfNilBeforeAnyWriteIsLegal) {
  History h;
  Seq s;
  auto r = h.begin_read(s.next());
  h.end_read(r, s.next(), kNil);
  auto w = h.begin_write(1, s.next());
  h.end_write(w, s.next(), true);
  EXPECT_TRUE(check_strict_linearizability(h));
}

TEST(HistoryCheckerTest, ReadOfNilAfterCompletedWriteIsIllegal) {
  History h;
  Seq s;
  auto w = h.begin_write(1, s.next());
  h.end_write(w, s.next(), true);
  auto r1 = h.begin_read(s.next());
  h.end_read(r1, s.next(), 1);
  auto r2 = h.begin_read(s.next());
  h.end_read(r2, s.next(), kNil);  // lost the write
  EXPECT_FALSE(check_strict_linearizability(h));
}

TEST(HistoryCheckerTest, StaleReadAfterNewerReadIsIllegal) {
  // read(v2) then read(v1) with v1 written before v2: violates (3)+(2).
  History h;
  Seq s;
  auto w1 = h.begin_write(1, s.next());
  h.end_write(w1, s.next(), true);
  auto w2 = h.begin_write(2, s.next());
  h.end_write(w2, s.next(), true);
  auto r1 = h.begin_read(s.next());
  h.end_read(r1, s.next(), 2);
  auto r2 = h.begin_read(s.next());
  h.end_read(r2, s.next(), 1);  // goes back in time
  EXPECT_FALSE(check_strict_linearizability(h));
}

TEST(HistoryCheckerTest, Figure5ViolationIsDetected) {
  // write(v) ok; write(v') crashes; read2 -> v; read3 -> v'.
  // Strictness: the crashed write happens-before read2, so v' <= v; but
  // read2 -> read3 gives v <= v' — a cycle between distinct values.
  History h;
  Seq s;
  auto w = h.begin_write(1, s.next());
  h.end_write(w, s.next(), true);
  auto w2 = h.begin_write(2, s.next());
  h.crash(w2, s.next());
  auto r2 = h.begin_read(s.next());
  h.end_read(r2, s.next(), 1);
  auto r3 = h.begin_read(s.next());
  h.end_read(r3, s.next(), 2);  // the partially written value resurfaces
  EXPECT_FALSE(check_strict_linearizability(h));
}

TEST(HistoryCheckerTest, CrashedWriteMayTakeEffectBeforeNextRead) {
  // Same prefix as Figure 5 but read2 returns v' (rolled forward): legal.
  History h;
  Seq s;
  auto w = h.begin_write(1, s.next());
  h.end_write(w, s.next(), true);
  auto w2 = h.begin_write(2, s.next());
  h.crash(w2, s.next());
  auto r2 = h.begin_read(s.next());
  h.end_read(r2, s.next(), 2);
  auto r3 = h.begin_read(s.next());
  h.end_read(r3, s.next(), 2);
  EXPECT_TRUE(check_strict_linearizability(h));
}

TEST(HistoryCheckerTest, CrashedWriteMayVanish) {
  // A crashed write whose value is never observed imposes no constraint.
  History h;
  Seq s;
  auto w = h.begin_write(1, s.next());
  h.end_write(w, s.next(), true);
  auto w2 = h.begin_write(2, s.next());
  h.crash(w2, s.next());
  auto r = h.begin_read(s.next());
  h.end_read(r, s.next(), 1);
  EXPECT_TRUE(check_strict_linearizability(h));
}

TEST(HistoryCheckerTest, AbortedWriteMayTakeEitherOutcome) {
  for (ValueId outcome : {ValueId{1}, ValueId{2}}) {
    History h;
    Seq s;
    auto w1 = h.begin_write(1, s.next());
    h.end_write(w1, s.next(), true);
    auto w2 = h.begin_write(2, s.next());
    h.end_write(w2, s.next(), false);  // ⊥: non-deterministic outcome
    auto r = h.begin_read(s.next());
    h.end_read(r, s.next(), outcome);
    EXPECT_TRUE(check_strict_linearizability(h)) << "outcome " << outcome;
  }
}

TEST(HistoryCheckerTest, AbortedWriteOutcomeMustStayFixed) {
  // Once a read observed v after the abort, flip-flopping back to the
  // pre-abort value is illegal.
  History h;
  Seq s;
  auto w1 = h.begin_write(1, s.next());
  h.end_write(w1, s.next(), true);
  auto w2 = h.begin_write(2, s.next());
  h.end_write(w2, s.next(), false);
  auto r1 = h.begin_read(s.next());
  h.end_read(r1, s.next(), 2);
  auto r2 = h.begin_read(s.next());
  h.end_read(r2, s.next(), 1);
  EXPECT_FALSE(check_strict_linearizability(h));
}

TEST(HistoryCheckerTest, ConcurrentOperationsOrderFreely) {
  // Two overlapping writes then a read of either value: both end states
  // are legal because neither write happens-before the other.
  for (ValueId outcome : {ValueId{1}, ValueId{2}}) {
    History h;
    Seq s;
    auto w1 = h.begin_write(1, s.next());
    auto w2 = h.begin_write(2, s.next());
    h.end_write(w1, s.next(), true);
    h.end_write(w2, s.next(), true);
    auto r = h.begin_read(s.next());
    h.end_read(r, s.next(), outcome);
    EXPECT_TRUE(check_strict_linearizability(h)) << "outcome " << outcome;
  }
}

TEST(HistoryCheckerTest, ConcurrentReadsMayDisagreeOnlyForward) {
  // A read concurrent with a write may return old or new; but two
  // *sequential* reads must not go backwards even if both were concurrent
  // with the write.
  History h;
  Seq s;
  auto w1 = h.begin_write(1, s.next());
  h.end_write(w1, s.next(), true);
  auto w2 = h.begin_write(2, s.next());  // stays pending (crashes later)
  auto r1 = h.begin_read(s.next());
  h.end_read(r1, s.next(), 2);
  auto r2 = h.begin_read(s.next());
  h.end_read(r2, s.next(), 1);
  h.crash(w2, s.next());
  EXPECT_FALSE(check_strict_linearizability(h));
}

TEST(HistoryCheckerTest, PendingOperationImposesNoOrder) {
  // An operation with no return/crash event (infinite op) cannot be ordered
  // before anything.
  History h;
  Seq s;
  auto w1 = h.begin_write(1, s.next());
  h.end_write(w1, s.next(), true);
  h.begin_write(2, s.next());  // never ends
  auto r = h.begin_read(s.next());
  h.end_read(r, s.next(), 2);
  auto r2 = h.begin_read(s.next());
  h.end_read(r2, s.next(), 2);
  EXPECT_TRUE(check_strict_linearizability(h));
}

TEST(HistoryCheckerTest, WritePrecedingWriteOrdersValues) {
  // write(1) -> write(2) complete in order; a read between them returning 2
  // is fine, but a read *after both* returning 1 is not.
  History h;
  Seq s;
  auto w1 = h.begin_write(1, s.next());
  h.end_write(w1, s.next(), true);
  auto w2 = h.begin_write(2, s.next());
  h.end_write(w2, s.next(), true);
  auto r = h.begin_read(s.next());
  h.end_read(r, s.next(), 1);
  EXPECT_FALSE(check_strict_linearizability(h));
}

TEST(HistoryCheckerTest, AbortedReadsImposeNothing) {
  History h;
  Seq s;
  auto w1 = h.begin_write(1, s.next());
  h.end_write(w1, s.next(), true);
  auto r1 = h.begin_read(s.next());
  h.end_read(r1, s.next(), std::nullopt);  // aborted read
  auto r2 = h.begin_read(s.next());
  h.end_read(r2, s.next(), 1);
  EXPECT_TRUE(check_strict_linearizability(h));
}

TEST(ValueRegistryTest, ZeroBlockIsNil) {
  ValueRegistry reg;
  EXPECT_EQ(reg.id_of(Block(16, 0)), kNil);
}

TEST(ValueRegistryTest, StableIdsPerContent) {
  ValueRegistry reg;
  const Block a{1, 2, 3};
  const Block b{4, 5, 6};
  const ValueId ia = reg.id_of(a);
  const ValueId ib = reg.id_of(b);
  EXPECT_NE(ia, ib);
  EXPECT_NE(ia, kNil);
  EXPECT_EQ(reg.id_of(a), ia);
  EXPECT_EQ(reg.id_of(Block{1, 2, 3}), ia);
}


Block value_block(std::uint8_t fill) { return Block(16, fill); }

TEST(RecorderTest, OpSpanningAttemptsFlagsABA) {
  // One logical write of A whose first attempt a reader recovered, then a
  // newer write B, then A's resend lands: the history the application saw
  // is W(A) spanning everything, R(A), W(B), R(A) — no total order.
  Recorder rec;
  const Block a = value_block(0xA), b = value_block(0xB);
  const auto wa = rec.begin_write({7}, {a});
  const auto r1 = rec.begin_read({7});
  rec.end_read(r1, {a});
  const auto wb = rec.begin_write({7}, {b});
  rec.end_write(wb, true);
  rec.end_write(wa, true);  // the resend's OK ends the one logical op
  const auto r2 = rec.begin_read({7});
  rec.end_read(r2, {a});
  const auto bad = rec.check();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].key, 7u);
  ASSERT_EQ(bad[0].ops.size(), 4u);
  EXPECT_EQ(bad[0].ops[0].kind, OpKind::kWrite);
  EXPECT_EQ(bad[0].ops[0].invoke_seq, 1u);
  EXPECT_EQ(bad[0].ops[0].end_seq, std::optional<std::uint64_t>(6));
  const std::string text = format_history(bad[0].ops);
  EXPECT_NE(text.find("W value=1 [1, 6] ok"), std::string::npos) << text;
  EXPECT_NE(text.find("R value=1 [7, 8] ok"), std::string::npos) << text;
}

TEST(RecorderTest, MultiKeyOpsProjectOntoEveryKey) {
  Recorder rec;
  const auto w = rec.begin_write({1, 2}, {value_block(1), value_block(2)});
  rec.end_write(w, true);
  const auto r = rec.begin_read({1, 2});
  rec.end_read(r, {value_block(1), value_block(2)});
  const auto lost = rec.begin_read({1});
  rec.end_read(lost, {});  // ⊥ imposes nothing
  EXPECT_TRUE(rec.check().empty());
  EXPECT_EQ(rec.size(), 2u);
}

TEST(RecorderTest, ReadOfAValueNoWriteCarriedIsFlagged) {
  Recorder rec;
  const auto r = rec.begin_read({3});
  rec.end_read(r, {value_block(0x5A)});
  const auto bad = rec.check();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].message, "read returned a value no writer ever produced");
}

TEST(RecorderTest, ConcurrentCallsGiveAWellFormedHistory) {
  // 4 threads each run sequential writes and reads on shared keys: every
  // op ends, every sequence number is unique, and each op's invoke
  // precedes its end.
  Recorder rec;
  constexpr int kThreads = 4;
  constexpr int kOps = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kOps; ++i) {
        const Recorder::Key key = static_cast<Recorder::Key>(i % 3);
        if (i % 2 == 0) {
          Block v(16, 0);
          v[0] = static_cast<std::uint8_t>(t + 1);
          v[1] = static_cast<std::uint8_t>(i);
          v[2] = static_cast<std::uint8_t>(i >> 8);
          const auto op = rec.begin_write({key}, {v});
          rec.end_write(op, i % 4 == 0);
        } else {
          const auto op = rec.begin_read({key});
          rec.end_read(op, {});
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rec.size(), 3u);
  std::set<std::uint64_t> seqs;
  std::size_t ops = 0;
  for (Recorder::Key key = 0; key < 3; ++key) {
    const History history = rec.history(key);
    for (const Operation& op : history.operations()) {
      ASSERT_TRUE(op.end_seq.has_value());
      EXPECT_LT(op.invoke_seq, *op.end_seq);
      EXPECT_NE(op.end, OpEnd::kPending);
      seqs.insert(op.invoke_seq);
      seqs.insert(*op.end_seq);
      ++ops;
    }
  }
  EXPECT_EQ(ops, static_cast<std::size_t>(kThreads * kOps));
  EXPECT_EQ(seqs.size(), 2 * ops) << "every event has its own sequence";
}

}  // namespace
}  // namespace fabec::hist
