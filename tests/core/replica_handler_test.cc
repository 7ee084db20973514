// Message-level unit tests of the replica handlers, pinning Algorithm 2's
// status rules line by line (plus the Modify handler of Algorithm 3).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/group_layout.h"
#include "core/replica.h"
#include "erasure/code_family.h"

namespace fabec::core {
namespace {

constexpr std::uint32_t kN = 5;
constexpr std::uint32_t kM = 3;
constexpr std::size_t kB = 32;

struct Fixture {
  Fixture()
      : layout(kN, kN),
        codec(erasure::make_code_family({}, kM, kN)),
        rng(1) {
    for (ProcessId p = 0; p < kN; ++p) {
      stores.push_back(std::make_unique<storage::BrickStore>(kB));
      replicas.push_back(std::make_unique<RegisterReplica>(
          p, quorum::Config{kN, kM}, &layout, codec.get(), stores.back().get()));
    }
  }

  template <typename Rep>
  Rep handle(ProcessId p, Message request) {
    auto reply = replicas[p]->handle(request);
    EXPECT_TRUE(reply.has_value());
    const Rep* rep = std::get_if<Rep>(&*reply);
    EXPECT_NE(rep, nullptr);
    return *rep;
  }

  Timestamp ts(std::int64_t t) { return Timestamp{t, 0}; }

  GroupLayout layout;
  std::unique_ptr<const erasure::CodeFamily> codec;
  Rng rng;
  std::vector<std::unique_ptr<storage::BrickStore>> stores;
  std::vector<std::unique_ptr<RegisterReplica>> replicas;
};

TEST(ReplicaHandlerTest, ReadOnFreshReplicaReturnsNil) {
  Fixture f;
  const auto rep = f.handle<ReadRep>(0, ReadReq{0, 1, {0}});
  EXPECT_TRUE(rep.status);  // max-ts == ord-ts == LowTS
  EXPECT_EQ(rep.val_ts, kLowTS);
  ASSERT_TRUE(rep.block.has_value());
  EXPECT_EQ(*rep.block, zero_block(kB));
}

TEST(ReplicaHandlerTest, ReadOmitsBlockWhenNotTargeted) {
  Fixture f;
  const auto rep = f.handle<ReadRep>(0, ReadReq{0, 1, {1, 2}});
  EXPECT_TRUE(rep.status);
  EXPECT_FALSE(rep.block.has_value());
  EXPECT_EQ(f.stores[0]->io().disk_reads, 0u);  // no disk touch
}

TEST(ReplicaHandlerTest, OrderAcceptsIncreasingTimestamps) {
  Fixture f;
  EXPECT_TRUE(f.handle<OrderRep>(0, OrderReq{0, 1, f.ts(10)}).status);
  // Equal to ord-ts but not above max-ts... ts(10) again: ts > max-ts(log)
  // holds (log still at LowTS), ts >= ord-ts holds (equal): idempotent OK.
  EXPECT_TRUE(f.handle<OrderRep>(0, OrderReq{0, 2, f.ts(10)}).status);
  // Older than ord-ts: rejected (line 46).
  EXPECT_FALSE(f.handle<OrderRep>(0, OrderReq{0, 3, f.ts(5)}).status);
  // Newer: accepted, ord-ts ratchets.
  EXPECT_TRUE(f.handle<OrderRep>(0, OrderReq{0, 4, f.ts(20)}).status);
  EXPECT_FALSE(f.handle<OrderRep>(0, OrderReq{0, 5, f.ts(10)}).status);
}

TEST(ReplicaHandlerTest, ReadSignalsPendingWrite) {
  // After Order but before Write, max-ts < ord-ts: the replica reports
  // status false so readers detect the write in progress (line 40).
  Fixture f;
  f.handle<OrderRep>(0, OrderReq{0, 1, f.ts(10)});
  const auto rep = f.handle<ReadRep>(0, ReadReq{0, 2, {0}});
  EXPECT_FALSE(rep.status);
  EXPECT_FALSE(rep.block.has_value());
}

TEST(ReplicaHandlerTest, WriteRequiresFreshTimestamp) {
  Fixture f;
  Rng rng(2);
  const Block b = random_block(rng, kB);
  f.handle<OrderRep>(0, OrderReq{0, 1, f.ts(10)});
  EXPECT_TRUE(f.handle<WriteRep>(0, WriteReq{0, 2, f.ts(10), b}).status);
  // Re-delivery (same ts): ts > max-ts now fails (line 58).
  EXPECT_FALSE(f.handle<WriteRep>(0, WriteReq{0, 3, f.ts(10), b}).status);
  // Older than ord-ts: rejected.
  EXPECT_FALSE(f.handle<WriteRep>(0, WriteReq{0, 4, f.ts(5), b}).status);
  // Read now serves the new block with its timestamp.
  const auto read = f.handle<ReadRep>(0, ReadReq{0, 5, {0}});
  EXPECT_TRUE(read.status);
  EXPECT_EQ(read.val_ts, f.ts(10));
  EXPECT_EQ(*read.block, b);
}

TEST(ReplicaHandlerTest, WriteWithoutOrderStillChecksOrdTs) {
  // A Write can land without this replica having seen the Order (quorums
  // differ); it applies as long as the timestamp is fresh.
  Fixture f;
  Rng rng(3);
  EXPECT_TRUE(
      f.handle<WriteRep>(0, WriteReq{0, 1, f.ts(10), random_block(rng, kB)})
          .status);
}

TEST(ReplicaHandlerTest, OrderReadReturnsVersionBelowBound) {
  Fixture f;
  Rng rng(4);
  const Block b10 = random_block(rng, kB);
  const Block b20 = random_block(rng, kB);
  f.handle<WriteRep>(0, WriteReq{0, 1, f.ts(10), b10});
  f.handle<WriteRep>(0, WriteReq{0, 2, f.ts(20), b20});

  OrderReadReq req{0, 3, kAllBlocks, kHighTS, f.ts(30)};
  auto rep = f.handle<OrderReadRep>(0, req);
  EXPECT_TRUE(rep.status);
  EXPECT_EQ(rep.lts, f.ts(20));
  EXPECT_EQ(*rep.block, b20);

  // Descend below 20 (next recovery iteration, same ts).
  req = OrderReadReq{0, 4, kAllBlocks, f.ts(20), f.ts(30)};
  rep = f.handle<OrderReadRep>(0, req);
  EXPECT_TRUE(rep.status);
  EXPECT_EQ(rep.lts, f.ts(10));
  EXPECT_EQ(*rep.block, b10);
}

TEST(ReplicaHandlerTest, OrderReadOnlyServesTargetedBlock) {
  Fixture f;
  // j = 1, handled by replica 0: orders but returns no block.
  const auto rep =
      f.handle<OrderReadRep>(0, OrderReadReq{0, 1, 1, kHighTS, f.ts(10)});
  EXPECT_TRUE(rep.status);
  EXPECT_FALSE(rep.block.has_value());
  EXPECT_EQ(rep.lts, kLowTS);
}

TEST(ReplicaHandlerTest, ModifyOnDataTargetStoresNewBlock) {
  Fixture f;
  Rng rng(5);
  const Block old_b = zero_block(kB);
  const Block new_b = random_block(rng, kB);
  // Target j = 0 handled by replica 0 (data position 0).
  ModifyReq req{0, 1, 0, old_b, new_b, kLowTS, f.ts(10)};
  EXPECT_TRUE(f.handle<ModifyRep>(0, req).status);
  const auto read = f.handle<ReadRep>(0, ReadReq{0, 2, {0}});
  EXPECT_EQ(*read.block, new_b);
}

TEST(ReplicaHandlerTest, ModifyOnParityAppliesCodedUpdate) {
  Fixture f;
  Rng rng(6);
  const Block old_b = zero_block(kB);
  const Block new_b = random_block(rng, kB);
  // Replica 4 is parity position 4 (index >= m = 3).
  ModifyReq req{0, 1, 0, old_b, new_b, kLowTS, f.ts(10)};
  EXPECT_TRUE(f.handle<ModifyRep>(4, req).status);
  // Expected parity: modify_{0,4} applied to the all-zero parity.
  const Block expected = f.codec->modify(0, 4, old_b, new_b, zero_block(kB));
  const auto read = f.handle<ReadRep>(4, ReadReq{0, 2, {4}});
  EXPECT_EQ(*read.block, expected);
}

TEST(ReplicaHandlerTest, ModifyOnOtherDataStoresBottomMarker) {
  Fixture f;
  Rng rng(7);
  ModifyReq req{0, 1, 0, zero_block(kB), random_block(rng, kB), kLowTS,
                f.ts(10)};
  EXPECT_TRUE(f.handle<ModifyRep>(1, req).status);  // replica 1: data, != j
  // Timestamp advanced, block unchanged, no disk write.
  auto& store = f.stores[1]->replica(0);
  EXPECT_EQ(store.max_ts(), f.ts(10));
  EXPECT_EQ(store.max_block_ts(), kLowTS);
  EXPECT_EQ(f.stores[1]->io().disk_writes, 0u);
}

TEST(ReplicaHandlerTest, ModifyRejectsStaleBaseVersion) {
  Fixture f;
  Rng rng(8);
  f.handle<WriteRep>(0, WriteReq{0, 1, f.ts(10), random_block(rng, kB)});
  // ts_j = LowTS no longer matches max-ts = 10 (line 89).
  ModifyReq req{0, 2, 0, zero_block(kB), random_block(rng, kB), kLowTS,
                f.ts(20)};
  EXPECT_FALSE(f.handle<ModifyRep>(0, req).status);
}

// Malformed requests: a CRC-valid datagram can carry any field values the
// codec accepts. Each shape below used to abort the brick (and, replayed
// from its journal, abort it again on every restart); the replica now
// refuses it with status=false before touching the store.

/// Sends `req` to replica p and expects a refusal that left no state.
void expect_refused(Fixture& f, ProcessId p, Message req) {
  EXPECT_FALSE(f.handle<ModifyRep>(p, std::move(req)).status);
  EXPECT_FALSE(f.stores[p]->has_replica(0)) << "refusal touched the store";
}

TEST(ReplicaHandlerTest, MultiModifyWithoutIndicesOrDeltaIsRefused) {
  Fixture f;  // replica 3 is a parity position
  expect_refused(f, 3,
                 MultiModifyReq{0, 1, {}, std::nullopt, kLowTS, f.ts(10)});
}

TEST(ReplicaHandlerTest, MultiModifyWithWrongSizeDeltaIsRefused) {
  Fixture f;
  Rng rng(10);
  expect_refused(f, 3, MultiModifyReq{0, 1, {0}, random_block(rng, 100),
                                      kLowTS, f.ts(10)});
}

TEST(ReplicaHandlerTest, MultiModifyWithBadIndicesIsRefused) {
  Fixture f;
  Rng rng(11);
  const Block delta = random_block(rng, kB);
  expect_refused(f, 3,
                 MultiModifyReq{0, 1, {0, 0}, delta, kLowTS, f.ts(10)});
  expect_refused(f, 3, MultiModifyReq{0, 2, {kM}, delta, kLowTS, f.ts(10)});
}

TEST(ReplicaHandlerTest, ModifyWithWrongSizeBlocksIsRefused) {
  Fixture f;
  Rng rng(12);
  expect_refused(f, 3,
                 ModifyReq{0, 1, 0, random_block(rng, 100),
                           random_block(rng, 100), kLowTS, f.ts(10)});
}

TEST(ReplicaHandlerTest, ModifyOfNonDataIndexIsRefused) {
  Fixture f;
  Rng rng(13);
  expect_refused(f, 3,
                 ModifyReq{0, 1, 77, zero_block(kB), random_block(rng, kB),
                           kLowTS, f.ts(10)});
}

TEST(ReplicaHandlerTest, ModifyDeltaWithoutNeededPayloadIsRefused) {
  Fixture f;
  expect_refused(f, 0,
                 ModifyDeltaReq{0, 1, 0, std::nullopt, kLowTS, f.ts(10)});
  expect_refused(f, 3,
                 ModifyDeltaReq{0, 2, 0, std::nullopt, kLowTS, f.ts(10)});
}

TEST(ReplicaHandlerTest, WriteOfWrongSizeIsRefused) {
  Fixture f;
  Rng rng(14);
  for (std::size_t size : {std::size_t{0}, kB - 1, kB + 1}) {
    EXPECT_FALSE(
        f.handle<WriteRep>(0, WriteReq{0, 1, f.ts(10), random_block(rng, size)})
            .status)
        << "size " << size;
  }
  EXPECT_FALSE(f.stores[0]->has_replica(0));
  // The same request with a block of the right size still applies.
  EXPECT_TRUE(
      f.handle<WriteRep>(0, WriteReq{0, 2, f.ts(10), random_block(rng, kB)})
          .status);
}

TEST(ReplicaHandlerTest, GcHasNoReplyAndTrims) {
  Fixture f;
  Rng rng(9);
  for (std::int64_t t : {10, 20, 30})
    f.handle<WriteRep>(0, WriteReq{0, t, f.ts(t), random_block(rng, kB)});
  EXPECT_EQ(f.stores[0]->replica(0).log_entries(), 4u);
  const auto reply = f.replicas[0]->handle(GcReq{0, f.ts(30)});
  EXPECT_FALSE(reply.has_value());
  EXPECT_EQ(f.stores[0]->replica(0).log_entries(), 2u);  // ts30 + fallback
}

TEST(ReplicaHandlerTest, GcForUnknownStripeIsNoop) {
  Fixture f;
  EXPECT_FALSE(f.replicas[0]->handle(GcReq{99, f.ts(5)}).has_value());
  EXPECT_FALSE(f.stores[0]->has_replica(99));
}

TEST(ReplicaHandlerTest, MisroutedRequestAnswersStatusFalse) {
  // In a pool, a brick asked about a stripe it does not serve must answer
  // (so quorum counting is unaffected) but with status = false.
  GroupLayout layout(10, 5);
  auto codec = erasure::make_code_family({}, kM, 5);
  storage::BrickStore store(kB);
  // Brick 9 does not serve stripe 0 (group = 0..4).
  RegisterReplica replica(9, quorum::Config{5, kM}, &layout, codec.get(), &store);
  auto reply = replica.handle(ReadReq{0, 1, {0}});
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(std::get<ReadRep>(*reply).status);
  EXPECT_EQ(store.stripes_stored(), 0u);  // no state materialized
}

}  // namespace
}  // namespace fabec::core
