// Persistent per-replica state for one storage register (paper §4.2).
//
// Each process keeps, for each register (stripe) it serves:
//   * ord-ts — the logical time at which the most recent write *started*;
//     max-ts(log) < ord-ts signals a write in progress / partial write.
//   * log    — a set of [timestamp, block] pairs recording the history of
//     updates this replica has seen. A pair may carry ⊥ instead of a block,
//     which advances the replica's timestamp knowledge without storing data
//     (used by the Modify handler for uninvolved data processes).
// The initial log is {[LowTS, nil]} where nil is the all-zero block: a
// virtual disk reads zeros from addresses never written, and the all-zero
// stripe is a valid codeword (parity of zeros is zero), so a fresh system is
// consistent by construction.
//
// Every block entry carries a CRC32 of its contents, recorded at append
// time. A stored block whose bytes no longer match its CRC (bit rot, a
// corrupted snapshot region) is treated as an ERASURE, never as data: the
// checked accessors report it as absent, exactly as if this replica had
// missed the write, and the erasure code repairs it from the surviving m
// replicas (cf. Konwar et al.'s erasures-and-errors model in PAPERS.md).
// Crucially a corrupt entry is NOT downgraded to a ⊥ marker — ⊥ certifies
// "block unchanged as of this timestamp", and a corrupt real write
// certifies nothing — so a replica never serves an older block under the
// corrupt entry's newer version timestamp.
//
// In a real brick this state lives in NVRAM (timestamps) and on disk
// (blocks) and survives crashes; here it survives because ProcessSet crash
// hooks only clear volatile protocol state, never the ReplicaStore. The
// store() primitive of §4.2 is atomic per variable, which this in-memory
// representation models trivially.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/timestamp.h"
#include "storage/disk_stats.h"

namespace fabec::storage {

struct LogEntry {
  Timestamp ts;
  std::optional<Block> block;  ///< nullopt is the paper's ⊥ marker
  std::uint32_t crc = 0;       ///< crc32 of *block; 0 for ⊥ entries

  bool crc_ok() const;
};

/// A decoded (timestamp, block) pair returned by log queries.
struct Version {
  Timestamp ts;
  Block block;
};

class ReplicaStore {
 public:
  /// Creates the initial state {ord-ts = LowTS, log = {[LowTS, nil]}}.
  explicit ReplicaStore(std::size_t block_size);

  /// Restores a replica from recovered state (snapshot load). The entries'
  /// stored CRCs are kept verbatim — a block that was corrupted on disk
  /// arrives here with a mismatched CRC and stays an erasure.
  ReplicaStore(std::size_t block_size, Timestamp ord_ts,
               std::vector<LogEntry> log);

  std::size_t block_size() const { return block_size_; }

  // --- ord-ts ---------------------------------------------------------
  const Timestamp& ord_ts() const { return ord_ts_; }
  /// store(ord-ts): NVRAM write.
  void store_ord_ts(const Timestamp& ts, DiskStats& io);

  // --- log queries (paper §4.2) ----------------------------------------
  /// max-ts(log): highest timestamp in the log, ⊥ entries included. Reads
  /// only the NVRAM timestamp index — no disk I/O.
  Timestamp max_ts() const;

  /// Timestamp of the newest non-⊥ entry (NVRAM only).
  Timestamp max_block_ts() const;

  /// max-block(log): the non-⊥ block with the highest timestamp. Always
  /// exists (the initial nil entry is non-⊥). One disk read. Does NOT
  /// check the CRC — maintenance/scrub use, where the corrupt bytes are
  /// the point.
  Block max_block(DiskStats& io) const;

  /// CRC-checked max-block: nullopt if the newest non-⊥ block fails its
  /// CRC. Protocol handlers use this so a rotted block is served to no
  /// one — the reply simply omits the block, which every coordinator path
  /// already treats as "this replica cannot help" (an erasure).
  std::optional<Block> max_block_checked(DiskStats& io) const;

  /// max-below(log, bound): the replica's view of the newest stripe version
  /// strictly below `bound`. Returns
  ///   ts    — the highest entry timestamp < bound, ⊥ entries included: the
  ///           version this reply vouches for;
  ///   block — the newest non-⊥ block < bound: this replica's block value
  ///           *as of* that version. A ⊥ marker appended by the Modify
  ///           handler certifies exactly that the block is unchanged at its
  ///           timestamp, which is why an older block may be served under a
  ///           newer version timestamp.
  /// nullopt if no non-⊥ entry exists below the bound (possible only after
  /// garbage collection), or if that entry fails its CRC — a corrupt block
  /// certifies nothing, so the reply must not vouch for any version.
  /// One disk read when found.
  std::optional<Version> max_below(const Timestamp& bound,
                                   DiskStats& io) const;

  /// The version timestamp max_below(bound) would have vouched for when it
  /// returns nullopt because that block fails its CRC; nullopt otherwise.
  /// No disk read.
  std::optional<Timestamp> rotted_below(const Timestamp& bound) const;

  // --- log updates -----------------------------------------------------
  /// Appends [ts, block] (block == nullopt appends a ⊥ marker). `ts` must
  /// exceed max_ts(); the protocol's status checks guarantee this. Counts
  /// one disk write for a block, one NVRAM write for ⊥.
  void append(const Timestamp& ts, std::optional<Block> block, DiskStats& io);

  /// True iff the newest log entry sits at exactly `ts`, holds a block, and
  /// that block fails its CRC — the one state a same-timestamp re-write may
  /// legally replace. A timestamp names a unique code word, so the incoming
  /// bytes for `ts` are the very bytes the rotted entry once held, while the
  /// stored ones certify nothing.
  bool newest_is_corrupt_at(const Timestamp& ts) const;

  /// Heal: replaces the newest entry's block (CRC recomputed). Requires
  /// newest_is_corrupt_at(ts) — callers gate on it. One disk write.
  void heal_newest(const Timestamp& ts, Block block, DiskStats& io);

  /// Garbage collection (paper §5.1): called once a write with timestamp
  /// `complete_ts` is known complete on a full quorum. Drops entries older
  /// than `complete_ts` except that — because *this* replica may not have
  /// participated in that write — it always retains its newest non-⊥ entry
  /// and its newest entry overall, so max_ts(), max_block() and recovery
  /// remain well defined.
  void gc_below(const Timestamp& complete_ts);

  // --- fault injection ---------------------------------------------------
  /// Overwrites the newest non-⊥ block in place (CRC updated to match),
  /// leaving timestamps untouched — models corruption the brick itself
  /// cannot detect; only a coordinator-side parity compare catches it.
  /// Test/maintenance use only.
  void corrupt_newest_block(Block garbage);

  /// Flips a seeded byte of the newest non-⊥ block WITHOUT updating its
  /// CRC — models latent bit rot that the local scrub must detect.
  void rot_newest_block(std::uint64_t seed);

  // --- integrity -------------------------------------------------------
  /// Number of block entries whose bytes no longer match their CRC.
  std::size_t count_crc_failures() const;

  // --- introspection ---------------------------------------------------
  /// Stable 64-bit fingerprint of the full persistent state (ord-ts + every
  /// log entry, block contents included). Fault injectors hash a brick
  /// before and after a crash to assert the NVRAM/disk state really did
  /// survive, and campaign replays compare end-state fingerprints.
  std::uint64_t fingerprint() const;

  std::size_t log_entries() const { return log_.size(); }
  /// Number of entries that hold an actual block (disk space consumed).
  std::size_t log_blocks() const;
  const std::vector<LogEntry>& log_for_inspection() const { return log_; }

 private:
  /// The newest non-⊥ entry below `bound` and the version timestamp it
  /// serves (the newest entry below `bound`); {nullptr, LowTS} if none.
  std::pair<const LogEntry*, Timestamp> block_below(
      const Timestamp& bound) const;

  std::size_t block_size_;
  Timestamp ord_ts_ = kLowTS;
  std::vector<LogEntry> log_;  // kept sorted by ts ascending
};

}  // namespace fabec::storage
