// Wire codec: round-trip property tests over randomized messages of every
// kind, plus rejection of truncated / corrupted / trailing-garbage inputs.
#include "core/wire.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serde.h"

namespace fabec::core {
namespace {

Timestamp random_ts(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return kLowTS;
    case 1: return kHighTS;
    default:
      return Timestamp{rng.next_in(-1000000, 1000000),
                       static_cast<ProcessId>(rng.next_below(64))};
  }
}

std::optional<Block> random_opt_block(Rng& rng) {
  if (rng.chance(0.3)) return std::nullopt;
  return random_block(rng, rng.next_below(64));  // includes empty blocks
}

std::vector<std::uint32_t> random_indices(Rng& rng) {
  std::vector<std::uint32_t> v(rng.next_below(6));
  for (auto& x : v) x = static_cast<std::uint32_t>(rng.next_below(16));
  return v;
}

Message random_message(Rng& rng) {
  const std::uint64_t stripe = rng.next_u64();
  const OpId op = rng.next_u64();
  switch (rng.next_below(14)) {
    case 0: {
      ReadReq req{stripe, op, random_indices(rng)};
      if (rng.chance(0.5)) req.validate_ts = random_ts(rng);
      return req;
    }
    case 1:
      return ReadRep{op, rng.chance(0.5), random_ts(rng),
                     random_opt_block(rng), rng.chance(0.5)};
    case 2: return OrderReq{stripe, op, random_ts(rng)};
    case 3: return OrderRep{op, rng.chance(0.5)};
    case 4:
      return OrderReadReq{stripe, op,
                          static_cast<BlockIndex>(rng.next_below(16)),
                          random_ts(rng), random_ts(rng)};
    case 5:
      return OrderReadRep{op, rng.chance(0.5), random_ts(rng),
                          random_opt_block(rng)};
    case 6: return MultiOrderReadReq{stripe, op, random_indices(rng),
                                     random_ts(rng)};
    case 7:
      return WriteReq{stripe, op, random_ts(rng),
                      random_block(rng, rng.next_below(64))};
    case 8: return WriteRep{op, rng.chance(0.5)};
    case 9:
      return ModifyReq{stripe,
                       op,
                       static_cast<BlockIndex>(rng.next_below(16)),
                       random_block(rng, 32),
                       random_block(rng, 32),
                       random_ts(rng),
                       random_ts(rng)};
    case 10: return ModifyRep{op, rng.chance(0.5)};
    case 11:
      return ModifyDeltaReq{stripe, op,
                            static_cast<BlockIndex>(rng.next_below(16)),
                            random_opt_block(rng), random_ts(rng),
                            random_ts(rng)};
    case 12:
      return MultiModifyReq{stripe, op, random_indices(rng),
                            random_opt_block(rng), random_ts(rng),
                            random_ts(rng)};
    default: return GcReq{stripe, random_ts(rng)};
  }
}

bool messages_equal(const Message& a, const Message& b) {
  // Message has no operator== (blocks make a memberwise default fine, but
  // keeping the structs aggregate-simple is worth more); compare via the
  // canonical encoding instead.
  return encode_message(a) == encode_message(b);
}

TEST(WireTest, RoundTripEveryKind) {
  Rng rng(1);
  int per_kind[14] = {};
  for (int i = 0; i < 2000; ++i) {
    const Message msg = random_message(rng);
    ++per_kind[msg.index()];
    const Bytes wire = encode_message(msg);
    const auto decoded = decode_message(wire);
    ASSERT_TRUE(decoded.has_value()) << "kind " << msg.index();
    EXPECT_EQ(decoded->index(), msg.index());
    EXPECT_TRUE(messages_equal(msg, *decoded));
  }
  for (int k = 0; k < 14; ++k)
    EXPECT_GT(per_kind[k], 0) << "kind " << k << " never sampled";
}

TEST(WireTest, EncodedSizeMatches) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const Message msg = random_message(rng);
    EXPECT_EQ(encoded_size(msg), encode_message(msg).size());
  }
}

TEST(WireTest, TruncationAlwaysRejected) {
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const Bytes wire = encode_message(random_message(rng));
    for (std::size_t cut : {std::size_t{0}, wire.size() / 2,
                            wire.size() - 1}) {
      if (cut >= wire.size()) continue;
      const Bytes truncated(wire.begin(),
                            wire.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(decode_message(truncated).has_value())
          << "cut at " << cut << " of " << wire.size();
    }
  }
}

TEST(WireTest, TrailingGarbageRejected) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    Bytes wire = encode_message(random_message(rng));
    wire.push_back(0xAB);
    EXPECT_FALSE(decode_message(wire).has_value());
  }
}

TEST(WireTest, UnknownTagRejected) {
  for (std::uint8_t tag : {std::uint8_t{14}, std::uint8_t{99},
                           std::uint8_t{255}}) {
    Bytes wire{tag};
    EXPECT_FALSE(decode_message(wire).has_value());
  }
  EXPECT_FALSE(decode_message(Bytes{}).has_value());
}

TEST(WireTest, RandomBytesNeverCrashTheDecoder) {
  // Fuzz-ish: feeding arbitrary bytes must yield reject-or-parse, never a
  // crash or an out-of-bounds read (run under ASan in debug builds).
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    Bytes junk(rng.next_below(80));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto result = decode_message(junk);
    if (result.has_value()) {
      // If it parsed, it must re-encode to exactly the same bytes
      // (canonical encoding).
      EXPECT_EQ(encode_message(*result), junk);
    }
  }
}

TEST(WireTest, AbsurdIndexCountRejectedWithoutAllocation) {
  // tag=0 (ReadReq), stripe, op, then count = 2^32-1.
  Bytes wire{0};
  ByteWriter w(wire);
  w.put_u64(1);
  w.put_u64(2);
  w.put_u32(0xFFFFFFFFu);
  EXPECT_FALSE(decode_message(wire).has_value());
}

TEST(WireTest, AnySingleByteCorruptionRejected) {
  // The trailing CRC-32 catches every single-byte corruption.
  Rng rng(7);
  const Bytes wire = encode_message(random_message(rng));
  for (std::size_t i = 0; i < wire.size(); ++i) {
    Bytes corrupted = wire;
    corrupted[i] ^= 0x5A;
    EXPECT_FALSE(decode_message(corrupted).has_value()) << "byte " << i;
  }
}

TEST(WireTest, ValidateTsRoundTripsBothWays) {
  // Wire revision 2 (DESIGN.md §13): the cached-read validation fields.
  static_assert(kWireRevision == 2);
  ReadReq plain{7, 9, {0, 2}};
  ReadReq probing = plain;
  probing.validate_ts = Timestamp{42, 3};
  // The optional costs one presence byte when absent, 13 bytes when present.
  const Bytes plain_wire = encode_message(Message{plain});
  const Bytes probe_wire = encode_message(Message{probing});
  EXPECT_EQ(probe_wire.size(), plain_wire.size() + 12);
  const auto plain_rt = decode_message(plain_wire);
  const auto probe_rt = decode_message(probe_wire);
  ASSERT_TRUE(plain_rt.has_value() && probe_rt.has_value());
  EXPECT_FALSE(std::get<ReadReq>(*plain_rt).validate_ts.has_value());
  ASSERT_TRUE(std::get<ReadReq>(*probe_rt).validate_ts.has_value());
  EXPECT_EQ(*std::get<ReadReq>(*probe_rt).validate_ts, (Timestamp{42, 3}));

  for (bool validated : {false, true}) {
    const ReadRep rep{9, true, Timestamp{42, 3}, std::nullopt, validated};
    const auto rt = decode_message(encode_message(Message{rep}));
    ASSERT_TRUE(rt.has_value());
    EXPECT_EQ(std::get<ReadRep>(*rt).validated, validated);
  }
}

TEST(WireTest, TagOfEveryKindIsPinned) {
  // Journal records begin with this tag (encode_message_body), and
  // decode_journal stops at the first record it cannot decode, treating the
  // rest as a torn tail. Deleting or reordering a Message alternative would
  // move every later kind to a new tag — GcReq, journaled after every
  // complete write, included — and a brick restarted on the new binary
  // would silently drop its journal from the first moved record on. So the
  // tags are fixed; retiring a kind (ModifyDeltaReq is replay-only) waits
  // for a journal revision header.
  const std::vector<Message> kinds = {
      ReadReq{},      ReadRep{},      OrderReq{},          OrderRep{},
      OrderReadReq{}, OrderReadRep{}, MultiOrderReadReq{}, WriteReq{},
      WriteRep{},     ModifyReq{},    ModifyRep{},         ModifyDeltaReq{},
      MultiModifyReq{}, GcReq{}};
  ASSERT_EQ(kinds.size(), std::variant_size_v<Message>);
  for (std::size_t tag = 0; tag < kinds.size(); ++tag) {
    ASSERT_EQ(kinds[tag].index(), tag);
    Bytes body;
    encode_message_body(kinds[tag], body);
    ASSERT_FALSE(body.empty());
    EXPECT_EQ(body[0], tag);
    const auto decoded = decode_message_body(body.data(), body.size());
    ASSERT_TRUE(decoded.has_value()) << "tag " << tag;
    EXPECT_EQ(decoded->index(), tag);
  }
}

TEST(WireTest, PayloadDominatedByBlocks) {
  // The wire overhead per block is small and fixed — the Table 1 convention
  // of counting only block payload is a good approximation.
  Rng rng(6);
  const Block big = random_block(rng, 64 * 1024);
  const WriteReq req{1, 2, Timestamp{3, 4}, big};
  const std::size_t size = encoded_size(Message{req});
  EXPECT_GT(size, big.size());
  EXPECT_LT(size - big.size(), 64u);
}

}  // namespace
}  // namespace fabec::core
