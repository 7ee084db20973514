// Coordinator-side operations of the storage register (Algorithms 1 and 3).
//
// Any brick can coordinate any operation (§4.1); a Coordinator instance is
// the per-brick embodiment of that role. Operations are asynchronous state
// machines: each messaging phase is one quorum RPC (broadcast + periodic
// retransmission until n - f distinct replies arrive, the §2.2 quorum()
// primitive over fair-lossy channels), and phase transitions run in reply
// callbacks. All continuations are volatile — a coordinator crash abandons
// every in-flight operation, which is precisely how partial writes arise.
//
// Every operation yields an Outcome<T>: a value, or the paper's ⊥ with an
// OpError that distinguishes a contention abort from a deadline expiry
// (core/outcome.h, DESIGN.md §9).
//
// Algorithm 3's single-block operations and footnote 2's multi-block ones
// are one protocol over different index sets, and share one code path:
// read_block(j) is read_blocks({j}), and write_block / write_blocks share one
// sequence (fast round, slow path, write-repair) that differs only in the
// fast round's message shape — the paper's OrderRead(j) + Modify(old, new)
// for write_block, per-destination MultiOrderRead + MultiModify for
// write_blocks (over one index, that is §5.2's (k+2)B delta write).
//
// Liveness machinery (DESIGN.md §9): each quorum RPC retransmits with
// exponential backoff and deterministic jitter instead of a fixed period, a
// per-brick suspicion map stops hammering bricks that missed several
// consecutive rounds (they are re-probed at a slower cadence), and an
// optional per-phase deadline (Options::op_deadline) turns "quorum
// unreachable" from a silent hang into a prompt OpError::kTimeout with
// every timer cancelled.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/timestamp.h"
#include "common/types.h"
#include "core/group_layout.h"
#include "core/messages.h"
#include "core/outcome.h"
#include "erasure/code_family.h"
#include "quorum/quorum.h"
#include "sim/executor.h"

namespace fabec::core {

/// Counters a coordinator keeps about its own operations; benches and the
/// abort-rate ablation read these.
struct CoordinatorStats {
  std::uint64_t stripe_reads = 0;
  std::uint64_t stripe_writes = 0;
  /// Reads of one block, through read_block or a one-index read_blocks.
  std::uint64_t block_reads = 0;
  /// Writes of one block, through write_block or a one-index write_blocks.
  std::uint64_t block_writes = 0;
  std::uint64_t multi_block_reads = 0;  ///< reads of two or more blocks
  std::uint64_t multi_block_writes = 0;  ///< writes of two or more blocks
  std::uint64_t fast_read_hits = 0;        ///< reads satisfied in one round
  std::uint64_t recoveries_started = 0;    ///< recover() invocations
  std::uint64_t recovery_iterations = 0;   ///< read-prev-stripe loop rounds
  std::uint64_t fast_block_write_hits = 0; ///< block writes via Modify
  std::uint64_t slow_block_writes = 0;     ///< block writes via recovery
  std::uint64_t write_repairs = 0;  ///< stripe repairs after aborted writes
  std::uint64_t aborts = 0;                ///< operations that returned ⊥
  std::uint64_t gc_messages = 0;           ///< individual GcReq sends
  std::uint64_t gc_rounds = 0;             ///< complete-write GC broadcasts
  std::uint64_t retransmit_rounds = 0;
  std::uint64_t op_timeouts = 0;       ///< phases ended by op_deadline
  std::uint64_t sends_suppressed = 0;  ///< retransmits skipped: suspect dest
  std::uint64_t suspect_probes = 0;    ///< slow-cadence probes of suspects
  std::uint64_t mismatched_replies = 0;  ///< dropped: wrong kind for phase
  // Cached single-round reads (DESIGN.md §13).
  std::uint64_t cached_read_hits = 0;   ///< reads served by a confirmed probe
  std::uint64_t cached_read_misses = 0; ///< no usable entry / suspected contact
  std::uint64_t cached_read_fallbacks = 0;  ///< probe sent but not confirmed
  std::uint64_t cache_invalidations = 0;    ///< entries dropped (incl. clear)
  std::uint64_t cache_evictions = 0;        ///< entries dropped by LRU bound
  // Plan-driven repair (DESIGN.md §14): single-block rebuild and degraded
  // reads that fetch only the repair plan's sources (< m for LRC locality).
  std::uint64_t block_rebuilds = 0;          ///< rebuild_block successes
  std::uint64_t block_rebuild_fallbacks = 0; ///< fell back to repair_stripe
  std::uint64_t rebuild_source_blocks = 0;   ///< source blocks fetched by them
  std::uint64_t degraded_reads = 0;          ///< plan-served block reads
  std::uint64_t degraded_read_fallbacks = 0; ///< plan probe failed -> recover
};

class Coordinator {
 public:
  using SendFn = std::function<void(ProcessId dest, Message msg)>;
  using StripeOutcome = Outcome<std::vector<Block>>;
  using BlockOutcome = Outcome<Block>;
  using WriteOutcome = Outcome<Ack>;
  using StripeOutcomeCb = std::function<void(StripeOutcome)>;
  using BlockOutcomeCb = std::function<void(BlockOutcome)>;
  using WriteOutcomeCb = std::function<void(WriteOutcome)>;

  struct Options {
    /// Initial retransmission period for the quorum() primitive. Must
    /// exceed the round-trip time or failure-free runs retransmit
    /// spuriously.
    sim::Duration retransmit_period = sim::milliseconds(10);
    /// Growth factor applied to the period after every retransmit round
    /// (values < 1 are treated as 1 = fixed period).
    double retransmit_backoff = 2.0;
    /// Ceiling for the backed-off period; 0 means 4 * retransmit_period.
    sim::Duration retransmit_max_period = 0;
    /// Deterministic jitter: each round's delay is drawn uniformly from
    /// period * [1 - j, 1 + j] using the coordinator's forked RNG, so two
    /// coordinators retransmitting for the same loss never stay phase-
    /// locked, yet a fixed seed reproduces the exact schedule.
    double retransmit_jitter = 0.1;
    /// Per-phase deadline: if a quorum RPC has not completed this long
    /// after it started, it is abandoned (all timers cancelled) and the
    /// operation fails with OpError::kTimeout. 0 = wait forever, the
    /// paper's asynchronous model.
    sim::Duration op_deadline = 0;
    /// Suspect a brick after it missed this many consecutive retransmit
    /// rounds; suspected bricks are skipped except for periodic probes.
    /// 0 disables suspicion (every round goes to every unreplied brick).
    std::uint32_t suspect_after = 3;
    /// Re-probe a suspected brick every this many retransmit rounds.
    std::uint32_t suspect_probe_period = 4;
    /// Send Gc messages after writes known complete on a full quorum (§5.1).
    bool auto_gc = true;
    /// How long quorum() keeps waiting, after n - f replies have arrived,
    /// for the specific replicas a fast path needs (the read targets / the
    /// written block's p_j). 0 = don't wait: correct and what Table 1
    /// assumes (replies are co-timed when disks are instantaneous), but
    /// under a disk service-time model the I/O-free replicas always answer
    /// first and every targeted fast path would fall back to recovery. A
    /// grace of a few δ restores the fast path; if the target is down, the
    /// operation pays the grace once and proceeds without it.
    sim::Duration target_grace = 0;
    /// Single-round cached reads (DESIGN.md §13): keep a per-stripe cache of
    /// the last timestamp proven complete on a quorum, and serve reads of a
    /// cached stripe with one round to t = max(m, f+1) contacts that each
    /// validate the cached timestamp against their own state. Any contact
    /// that is silent, degraded, or at a different version sends the read
    /// down the unoptimized quorum path and invalidates the entry. Off by
    /// default: the paper's message counts (Table 1 tests) assume the
    /// uncached read.
    bool read_cache = false;
    /// LRU bound on cached stripes (minimum 1).
    std::size_t read_cache_capacity = 1024;
    /// How long a cached-read probe waits for its contacts before giving up
    /// and falling back to the quorum path. 0 = retransmit_period. Probes
    /// are never deadline-bounded themselves — they always end in a confirm
    /// or a fallback, and the quorum path carries op_deadline as usual.
    sim::Duration read_cache_fallback = 0;
  };

  Coordinator(ProcessId self, quorum::Config config,
              const GroupLayout* layout, const erasure::CodeFamily* codec,
              sim::Executor* executor, TimestampSource* ts_source,
              SendFn send, Options options);

  // --- Algorithm 1: whole-stripe access -------------------------------
  /// read-stripe: yields the m data blocks, or ⊥ on abort.
  void read_stripe(StripeId stripe, StripeOutcomeCb done);
  /// write-stripe: `data` must be exactly m blocks of the codec's size.
  void write_stripe(StripeId stripe, std::vector<Block> data,
                    WriteOutcomeCb done);

  // --- Algorithm 3 and footnote 2: block access -----------------------
  // One operation over some data blocks of one stripe: 2δ fast reads, 4δ
  // fast writes, whatever the number of blocks.
  /// Reads the listed data blocks; yields them in `js` order, or ⊥.
  void read_blocks(StripeId stripe, std::vector<BlockIndex> js,
                   StripeOutcomeCb done);
  /// read_blocks({j}), yielding the one block.
  void read_block(StripeId stripe, BlockIndex j, BlockOutcomeCb done);
  /// Atomically writes blocks[i] to data index js[i]. Indices must be
  /// distinct; all blocks take effect under one timestamp (one version).
  /// The Modify round carries per-destination payloads — each written data
  /// process its new block, each parity process one combined coded delta,
  /// the rest none — so a w-block write moves (2w + k)B: (k + 2)B for one
  /// block, §5.2's bandwidth-optimized block write.
  void write_blocks(StripeId stripe, std::vector<BlockIndex> js,
                    std::vector<Block> blocks, WriteOutcomeCb done);
  /// Algorithm 3's block write as published: the Modify round ships (old,
  /// new) to every process, (2n + 1)B in all (Table 1). Kept as the
  /// paper's reference shape; front ends write through write_blocks.
  void write_block(StripeId stripe, BlockIndex j, Block block,
                   WriteOutcomeCb done);

  // --- maintenance ------------------------------------------------------
  /// Repairs one stripe: runs the recovery path unconditionally, which
  /// reconstructs the newest recoverable version and writes it back to a
  /// full quorum — re-creating the blocks of any freshly replaced brick in
  /// the stripe's group. Used by the rebuild service after brick
  /// replacement; semantically it is a read whose fast path is skipped.
  void repair_stripe(StripeId stripe, WriteOutcomeCb done);

  /// Repairs ONE lost block via the code family's repair plan instead of a
  /// full stripe recovery (DESIGN.md §14). One read round fetches only the
  /// plan's sources (for an LRC local plan, the lost block's group — fewer
  /// than m blocks on the wire); if every reply is clean at one common
  /// version, the reconstructed block is written to the lost position alone
  /// under that same version timestamp — safe because a timestamp names one
  /// unique code word, so the write is byte-identical to the one the lost
  /// brick missed. Any wrinkle (no plan, partial write visible, version
  /// skew, missing source block, write rejected) falls back to
  /// repair_stripe, which is always sufficient.
  void rebuild_block(StripeId stripe, BlockIndex lost, WriteOutcomeCb done);

  /// Scrub verdict: does the stripe's stored parity match its data?
  enum class ScrubResult {
    kClean,         ///< all n blocks agree with a re-encode of the data
    kCorrupt,       ///< at least one stored block contradicts the code word
    kInconclusive,  ///< replicas answered at different versions; retry
  };
  using ScrubCb = std::function<void(ScrubResult)>;
  /// Extended scrub verdict: on kCorrupt, also the corrupted position when
  /// the family could localize it (single corruption, distance >= 3) —
  /// which lets the repair consumer run rebuild_block on that position
  /// instead of a full stripe recovery. nullopt = corrupt but not
  /// attributable to one block.
  using ScrubExCb = std::function<void(ScrubResult, std::optional<BlockIndex>)>;

  /// Read-only parity scrub (latent-error detection, the maintenance task
  /// every disk system runs in the background): collects all n blocks at
  /// one version, re-encodes the data part, and compares against the
  /// stored parity. Touches no persistent state — concurrent writes make
  /// it inconclusive rather than aborting them. A kCorrupt stripe is
  /// healed by repair_stripe if >= m blocks are still mutually consistent.
  /// A deadline expiry reads as kInconclusive.
  void scrub_stripe(StripeId stripe, ScrubCb done);
  void scrub_stripe(StripeId stripe, ScrubExCb done);

  // --- plumbing (called by the enclosing cluster) ----------------------
  /// Routes a reply message to the pending phase it answers. Replies whose
  /// message kind does not match the phase's request (possible only via an
  /// op-id collision with a previous coordinator incarnation) are dropped.
  void on_reply(ProcessId from, const Message& reply);
  /// Crash: forget all in-flight operations. Their callbacks never run.
  void drop_all_pending();

  /// Observer invoked at the start of every quorum() messaging phase, after
  /// the phase's requests have been handed to the send function. Fault
  /// injectors (src/chaos) use it to crash a coordinator *mid-phase* — the
  /// interleaving that manufactures partial writes. The probe may crash
  /// this coordinator synchronously (drop_all_pending() is safe here) or
  /// schedule the crash for the same virtual instant.
  using PhaseProbe = std::function<void(OpId phase)>;
  void set_phase_probe(PhaseProbe probe) { phase_probe_ = std::move(probe); }

  const CoordinatorStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CoordinatorStats{}; }
  ProcessId self() const { return self_; }

  /// Cached-read introspection (tests, stats surfaces).
  std::size_t read_cache_size() const { return cache_map_.size(); }
  bool read_cache_contains(StripeId stripe) const {
    return cache_map_.count(stripe) != 0;
  }

 private:
  struct Rpc {
    /// Global brick ids of the stripe's group, ordered by position; the
    /// request built for position p goes to dests[p].
    std::vector<ProcessId> dests;
    std::function<Message(std::uint32_t, OpId)> make_request;
    /// Reply from each group member, indexed by position; nullopt = not
    /// yet replied.
    std::vector<std::optional<Message>> replies;
    std::uint32_t distinct = 0;
    bool finalizing = false;
    sim::EventId retransmit_timer{};
    /// Delay before the next retransmit round; grows by retransmit_backoff
    /// up to the cap.
    sim::Duration next_period = 0;
    /// Variant index of the reply kind this phase expects; anything else
    /// with a colliding op id is dropped (see on_reply).
    std::size_t expected_kind = 0;
    bool deadline_armed = false;
    sim::EventId deadline_timer{};
    /// Positions whose replies the phase specifically needs (fast-path
    /// targets); waited for up to Options::target_grace beyond the quorum.
    std::vector<std::uint32_t> wait_for;
    bool grace_armed = false;
    sim::EventId grace_timer{};
    /// Non-empty = sub-quorum cached-read probe: requests go only to these
    /// positions, the phase completes when EVERY contact replied (it can
    /// never reach the quorum counter, |contacts| < n - f in general), and
    /// the grace timer doubles as the fallback timer that finalizes early
    /// with partial replies.
    std::vector<std::uint32_t> contacts;
    /// Set = a quorum may not be enough: while hold(replies) is true and
    /// some member has not replied, the phase keeps waiting.
    std::function<bool(const std::vector<std::optional<Message>>&)> hold;
    /// timed_out=true means the deadline expired: `replies` holds whatever
    /// arrived (short of quorum) and the phase will make no progress.
    std::function<void(std::vector<std::optional<Message>>&, bool timed_out)>
        on_complete;
  };

  using Replies = std::vector<std::optional<Message>>;

  /// Starts one quorum(msg) round over the stripe's group: sends
  /// make_request(position) to every member, retransmits with backoff, and
  /// calls on_complete once n - f distinct replies arrived (plus any
  /// further replies delivered at the same virtual instant — co-timed
  /// stragglers are free to include and keep the failure-free fast path
  /// deterministic). Reply slots are indexed by group position. `Rep` is
  /// the reply kind the phase expects; mismatched replies are dropped.
  template <typename Rep>
  OpId start_rpc(std::vector<ProcessId> dests,
                 std::function<Message(std::uint32_t, OpId)> make_request,
                 std::function<void(Replies&, bool)> on_complete,
                 std::vector<std::uint32_t> wait_for = {},
                 std::function<bool(const Replies&)> hold = {}) {
    return start_rpc_impl(std::move(dests), std::move(make_request),
                          std::move(on_complete), message_kind_of<Rep>,
                          std::move(wait_for), {}, std::move(hold));
  }
  OpId start_rpc_impl(std::vector<ProcessId> dests,
                      std::function<Message(std::uint32_t, OpId)> make_request,
                      std::function<void(Replies&, bool)> on_complete,
                      std::size_t expected_kind,
                      std::vector<std::uint32_t> wait_for,
                      std::vector<std::uint32_t> contacts = {},
                      std::function<bool(const Replies&)> hold = {});
  void transmit_round(OpId op, bool retransmit);
  void arm_retransmit(OpId op);
  void begin_finalize(OpId op);
  void finalize_rpc(OpId op);
  /// Deadline expiry: cancels the phase's timers, removes it from
  /// pending_, and reports timed_out to its continuation.
  void timeout_rpc(OpId op);
  sim::Duration retransmit_cap() const;

  // Single-round cached reads (DESIGN.md §13). cache_usable_ts returns the
  // cached timestamp iff the cache is on, holds the stripe, and a full
  // contact set (the required data positions padded to t = max(m, f+1) with
  // unsuspected extras) can be assembled; cached_probe runs the one-round
  // validation RPC and reports nullopt when the read must fall back.
  using CachedProbeCb = std::function<void(std::optional<StripeOutcome>)>;
  std::optional<Timestamp> cache_usable_ts(
      StripeId stripe, const std::vector<BlockIndex>& required,
      std::vector<std::uint32_t>* contacts);
  void cached_probe(StripeId stripe, Timestamp ts, std::vector<BlockIndex> js,
                    std::vector<std::uint32_t> contacts, CachedProbeCb done);
  /// Records `ts` as complete-on-a-quorum for the stripe (LRU front).
  void cache_put(StripeId stripe, const Timestamp& ts);
  void cache_invalidate(StripeId stripe);
  void cache_clear();

  using BlockList = std::shared_ptr<const std::vector<BlockIndex>>;

  // Unoptimized quorum read paths (the pre-cache entry points).
  void read_stripe_quorum(StripeId stripe, StripeOutcomeCb done);
  /// Checks js, then serves it from the cache or the quorum read.
  void read_data_blocks(StripeId stripe, std::vector<BlockIndex> js,
                        StripeOutcomeCb done);
  void read_blocks_quorum(StripeId stripe, BlockList js, StripeOutcomeCb done);
  /// Degraded read (DESIGN.md §14): the quorum round proved one common
  /// complete version val_ts, and every requested block arrived but the one
  /// at out[missing]. One more validated round to the repair plan's sources
  /// reconstructs it at val_ts without the recovery write-back; any wrinkle
  /// falls to recover.
  void degraded_read_blocks(StripeId stripe, BlockList js,
                            std::vector<Block> out, std::size_t missing,
                            Timestamp val_ts, std::vector<BlockIndex> alive,
                            StripeOutcomeCb done);
  /// recover() + project js, counting aborts (the shared slow tail of the
  /// quorum and degraded reads).
  void recover_read_blocks(StripeId stripe, BlockList js,
                           StripeOutcomeCb done);
  /// rebuild_block's write leg: one WriteReq carrying the reconstructed
  /// block to the lost position alone (the sub-quorum contact mechanism);
  /// a rejection or silence falls back to repair_stripe.
  void write_rebuilt_block(StripeId stripe, BlockIndex lost, Timestamp ts,
                           std::shared_ptr<const Block> block,
                           std::size_t fetched, WriteOutcomeCb done);

  // Algorithm 1 internals.
  void fast_read_stripe(StripeId stripe, StripeOutcomeCb done);
  void recover(StripeId stripe, StripeOutcomeCb done);
  struct RecoverState;
  void read_prev_stripe(std::shared_ptr<RecoverState> state);
  /// Lines 30-31 over one recovery round's replies: the newest timestamp
  /// and the shards stored at exactly it. `unresolved` = they cannot
  /// decode, a holder of max replied without its (rotted) block, and at
  /// most f replies lag behind max, so max may be a complete write that
  /// descending would lose.
  struct RecoveryRound {
    Timestamp max;
    std::vector<erasure::ShardView> shards;
    bool decodable = false;
    bool unresolved = false;
  };
  RecoveryRound judge_recovery_round(const Replies& replies) const;
  /// Encodes and writes one complete stripe version. Takes shared ownership
  /// of the data blocks: only the k parity blocks are computed (into fresh
  /// buffers); the data blocks themselves are referenced, not copied, until
  /// each send serializes its own block.
  void store_stripe(StripeId stripe,
                    std::shared_ptr<const std::vector<Block>> data,
                    Timestamp ts, WriteOutcomeCb done);

  // Block writes (Algorithm 3, footnote 2). The payload is materialized
  // exactly once and shared by the fast and slow paths.
  struct BlockWrite {
    StripeId stripe = 0;
    std::vector<BlockIndex> js;
    std::vector<Block> blocks;
    Timestamp ts;
    /// Fast-round shape: OrderRead(j) + Modify(old, new) to every process
    /// (write_block), or per-destination MultiOrderRead + MultiModify.
    bool paper_modify = false;
    /// Set once a message carrying the blocks (the Modify round or the slow
    /// path's store) left: from then on an abort is kAbortedAfterSend.
    mutable bool sent = false;
  };
  using BlockWritePtr = std::shared_ptr<const BlockWrite>;
  /// The one write sequence: fast round, then the slow path, then the
  /// write-repair livelock breaker.
  void run_block_write(std::shared_ptr<BlockWrite> write, WriteOutcomeCb done);
  void fast_write_blocks(BlockWritePtr w, WriteOutcomeCb done);
  /// The Modify round's per-position request, given the fast round's old
  /// blocks (in js order) and their common version ts_j.
  std::function<Message(std::uint32_t, OpId)> modify_request(
      BlockWritePtr w, const std::vector<const Block*>& old_blocks,
      Timestamp ts_j) const;
  void slow_write_blocks(BlockWritePtr w, WriteOutcomeCb done);

  void maybe_send_gc(StripeId stripe, Timestamp complete_ts);

  ProcessId self_;
  quorum::Config config_;
  const GroupLayout* layout_;
  const erasure::CodeFamily* codec_;
  sim::Executor* sim_;
  TimestampSource* ts_source_;
  SendFn send_;
  Options options_;
  Rng rng_;

  /// Monotonic phase-id counter, seeded from the forked RNG at construction
  /// (an incarnation nonce) and deliberately *not* reset on crash, so a
  /// stale reply can practically never be matched against a post-recovery
  /// operation — and if an id ever does collide, the expected-kind filter
  /// in on_reply drops the impostor instead of corrupting the phase.
  OpId next_op_ = 1;
  std::map<OpId, Rpc> pending_;
  /// Suspicion map: consecutive retransmit rounds each brick has missed
  /// (reset by any reply from it). Indexed by global brick id.
  std::vector<std::uint32_t> missed_rounds_;
  /// Per-stripe timestamp cache, LRU-ordered (front = most recent). Each
  /// entry is a timestamp proven complete on a quorum; drop_all_pending
  /// (crash/restart) clears it wholesale — a new incarnation trusts nothing.
  std::list<std::pair<StripeId, Timestamp>> cache_lru_;
  std::unordered_map<StripeId,
                     std::list<std::pair<StripeId, Timestamp>>::iterator>
      cache_map_;
  CoordinatorStats stats_;
  PhaseProbe phase_probe_;
};

}  // namespace fabec::core
