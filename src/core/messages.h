// Wire messages of the storage-register protocol (Algorithms 1–3).
//
// One request/reply pair per messaging phase:
//   Read        — fast-path read; replicas report their newest timestamp and
//                 (targets only) their newest block.
//   Order       — phase 1 of write-stripe: claim a place in the total order.
//   OrderRead   — combined order + versioned read; used by recovery
//                 (j = ALL) and by the block-write fast path (j = block).
//   Write       — phase 2 of write-stripe / recovery write-back. Each
//                 destination receives only its own block of the encoded
//                 stripe, so a full-stripe write costs nB of payload
//                 (Table 1's convention).
//   Modify      — block-write fast path: carries the old and new values of
//                 data block j so parity processes can apply modify_{j,i}.
//                 This is the unoptimized (2n+1)B form of write_block;
//                 MultiOrderRead + MultiModify carry write_blocks, whose
//                 one-index form is §5.2's (k+2)B delta write.
//   ModifyDelta — replay-only: no coordinator sends it any more (§5.2 is
//                 write_blocks({j})), but replicas still decode and handle
//                 it so old journals replay. Journal records begin with the
//                 variant index as their tag and decode_journal stops at
//                 the first record it cannot decode, so removing the kind
//                 would renumber MultiModify and Gc and silently truncate
//                 every journal at its first such record; that waits for a
//                 journal revision header.
//   Gc          — asynchronous log trimming after a complete write (§5.1);
//                 has no reply.
//
// Bandwidth accounting: wire_size() counts block payload bytes only,
// matching Table 1, which measures network b/w in units of the block size B
// and ignores fixed-size metadata.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/timestamp.h"
#include "common/types.h"

namespace fabec::core {

/// Correlates replies with the coordinator-side pending operation phase.
using OpId = std::uint64_t;

/// Sentinel for OrderRead's j parameter meaning "every process returns its
/// block" (the paper's ALL).
inline constexpr BlockIndex kAllBlocks = ~BlockIndex{0};

struct ReadReq {
  StripeId stripe = 0;
  OpId op = 0;
  std::vector<ProcessId> targets;  ///< processes asked to return their block
  /// Cached-read validation (DESIGN.md §13): when set, the coordinator
  /// believes the stripe's newest version is exactly this timestamp and is
  /// probing a sub-quorum contact set. The replica answers with
  /// `validated = status && val_ts == *validate_ts` and only ships its
  /// block when the validation holds — a mismatch means the cache entry is
  /// stale and the payload would be wasted.
  std::optional<Timestamp> validate_ts;
};

struct ReadRep {
  OpId op = 0;
  bool status = false;
  Timestamp val_ts;              ///< max-ts(log)
  std::optional<Block> block;    ///< max-block(log) if self ∈ targets
  /// True iff the request carried validate_ts, the replica's timestamps are
  /// sound (status), and val_ts equals the cached timestamp exactly.
  bool validated = false;
};

struct OrderReq {
  StripeId stripe = 0;
  OpId op = 0;
  Timestamp ts;
};

struct OrderRep {
  OpId op = 0;
  bool status = false;
};

struct OrderReadReq {
  StripeId stripe = 0;
  OpId op = 0;
  BlockIndex j = kAllBlocks;  ///< block of interest, or kAllBlocks
  Timestamp bound;            ///< the paper's `max`: return newest version < bound
  Timestamp ts;
};

/// Multi-block generalization of OrderRead (footnote 2): every process in
/// `js` returns its current block and version. Used by write_blocks.
struct MultiOrderReadReq {
  StripeId stripe = 0;
  OpId op = 0;
  std::vector<BlockIndex> js;
  Timestamp ts;
};

struct OrderReadRep {
  OpId op = 0;
  bool status = false;
  Timestamp lts;               ///< timestamp of the returned version (or LowTS)
  std::optional<Block> block;  ///< the version's block, ⊥ if none / not asked
};

struct WriteReq {
  StripeId stripe = 0;
  OpId op = 0;
  Timestamp ts;
  Block block;  ///< the destination's block of encode(stripe)
};

struct WriteRep {
  OpId op = 0;
  bool status = false;
};

struct ModifyReq {
  StripeId stripe = 0;
  OpId op = 0;
  BlockIndex j = 0;  ///< index of the updated data block
  Block old_block;   ///< b_j: current value at p_j
  Block new_block;   ///< b:   value being written
  Timestamp ts_j;    ///< timestamp of b_j at p_j
  Timestamp ts;
};

struct ModifyRep {
  OpId op = 0;
  bool status = false;
};

/// Multi-block generalization of Modify (footnote 2) with per-destination
/// payloads: each updated data process receives its new block; each parity
/// process receives ONE combined coded delta,
///     Δ_p = Σ_{j ∈ js} G[p][j] · (old_j XOR new_j),
/// precomputed by the coordinator (which knows the generator matrix), so a
/// w-block write ships (w + k)B in this round regardless of w; uninvolved
/// data processes receive a payload-free timestamp marker.
struct MultiModifyReq {
  StripeId stripe = 0;
  OpId op = 0;
  std::vector<BlockIndex> js;  ///< updated data blocks
  std::optional<Block> block;  ///< new block / combined delta / ⊥
  Timestamp ts_j;              ///< common version of all old blocks
  Timestamp ts;
};

/// §5.2-optimized form of Modify with per-destination payloads: p_j receives
/// the new block, each parity process receives one raw delta block
/// (G[i][j] is applied receiver-side), and uninvolved data processes receive
/// no payload at all. Replay-only (see the header comment): coordinators
/// send write_blocks({j}) instead.
struct ModifyDeltaReq {
  StripeId stripe = 0;
  OpId op = 0;
  BlockIndex j = 0;            ///< index of the updated data block
  std::optional<Block> block;  ///< new block (to p_j), delta (to parity), ⊥
  Timestamp ts_j;
  Timestamp ts;
};

struct GcReq {
  StripeId stripe = 0;
  Timestamp complete_ts;  ///< a write known complete on a full quorum
};

using Message =
    std::variant<ReadReq, ReadRep, OrderReq, OrderRep, OrderReadReq,
                 OrderReadRep, MultiOrderReadReq, WriteReq, WriteRep,
                 ModifyReq, ModifyRep, ModifyDeltaReq, MultiModifyReq, GcReq>;

namespace detail {

template <typename T, typename Variant>
struct VariantIndex;

template <typename T, typename... Ts>
struct VariantIndex<T, std::variant<Ts...>> {
  static constexpr std::size_t value = [] {
    constexpr bool matches[] = {std::is_same_v<T, Ts>...};
    for (std::size_t i = 0; i < sizeof...(Ts); ++i)
      if (matches[i]) return i;
    return sizeof...(Ts);
  }();
  static_assert(value < sizeof...(Ts), "Kind is not a Message alternative");
};

}  // namespace detail

/// Index of `Kind` within the Message variant. The coordinator records the
/// expected reply kind of each pending phase and drops replies whose
/// variant index disagrees — an op id collision across coordinator
/// incarnations must never feed a WriteRep into an OrderRep phase.
template <typename Kind>
inline constexpr std::size_t message_kind_of =
    detail::VariantIndex<Kind, Message>::value;

/// Block-payload bytes carried by a message (Table 1's b/w unit).
std::size_t payload_bytes(const Message& msg);

/// One network transmission unit: a frame of one or more messages.
/// Singleton sends wrap one message; the batching sender (core/batch.h)
/// packs many. The simulated network delays/drops/duplicates whole
/// envelopes, so with batching enabled the frame — not the message — is
/// the fault unit, exactly as a framed datagram behaves on a real wire.
struct Envelope {
  std::vector<Message> msgs;

  Envelope() = default;
  explicit Envelope(Message m) { msgs.push_back(std::move(m)); }
  explicit Envelope(std::vector<Message> m) : msgs(std::move(m)) {}

  std::size_t wire_size() const {
    std::size_t total = 0;
    for (const Message& m : msgs) total += payload_bytes(m);
    return total;
  }
};

/// True for request kinds (handled by replicas), false for replies
/// (handled by coordinators).
bool is_request(const Message& msg);

}  // namespace fabec::core
