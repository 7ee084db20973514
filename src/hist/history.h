// History recording and a machine checker for strict linearizability.
//
// Appendix B proves the algorithm correct by exhibiting a *conforming total
// order* (Definition 5): a total order < on the observable values such that
//     (1) nil ≤ v                                 (nil is the initial value)
//     (2) write(v) →H write(v')  ⇒  v < v'
//     (3) read(v)  →H read(v')   ⇒  v ≤ v'
//     (4) write(v) →H read(v')   ⇒  v ≤ v'
//     (5) read(v)  →H write(v')  ⇒  v < v'
// where op →H op' means op's return OR CRASH event precedes op''s
// invocation. Including crash events is what makes this *strict*
// linearizability: a write that crashed before read r began is ordered
// before r, so its value may not surface after r observed an older value
// (the Figure 5 scenario becomes a constraint cycle v' ≤ v ≤ v').
//
// This module records per-block histories from test runs and checks that a
// conforming total order exists. The conditions induce a constraint graph
// over observable values (edges strict for (2)/(5), non-strict for
// (3)/(4)); a conforming total order exists iff the graph has no strict
// self-loop and no cycle through two or more distinct values. Tests write a
// unique value per write, matching Appendix B's unique-value assumption.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"

namespace fabec::hist {

/// Dense id for a written value; kNil is the never-written initial value.
using ValueId = std::uint64_t;
inline constexpr ValueId kNil = 0;

enum class OpKind { kRead, kWrite };

/// How an operation's history ended.
enum class OpEnd {
  kPending,   ///< no return or crash event (infinite operation)
  kReturned,  ///< returned a value / OK
  kAborted,   ///< returned ⊥ — outcome non-deterministic
  kCrashed,   ///< the coordinator crashed mid-operation (partial operation)
};

struct Operation {
  OpKind kind = OpKind::kRead;
  /// Writes: the value written. Successful reads: the value returned.
  /// Aborted/crashed/pending reads: unset.
  std::optional<ValueId> value;
  std::uint64_t invoke_seq = 0;
  /// Sequence of the return or crash event; unset while pending.
  std::optional<std::uint64_t> end_seq;
  OpEnd end = OpEnd::kPending;
};

/// One per-block history (Appendix B reasons per block; tests project
/// stripe-level operations onto each block index).
class History {
 public:
  using OpRef = std::size_t;

  /// Records an invocation; events are sequenced by a recorder-global
  /// counter supplied by the caller (tests use one counter per History
  /// group so projections of one stripe op share sequence numbers).
  OpRef begin_read(std::uint64_t seq);
  OpRef begin_write(ValueId value, std::uint64_t seq);

  void end_read(OpRef op, std::uint64_t seq, std::optional<ValueId> returned);
  void end_write(OpRef op, std::uint64_t seq, bool ok);
  /// Marks the operation as ended by a coordinator crash.
  void crash(OpRef op, std::uint64_t seq);

  const std::vector<Operation>& operations() const { return ops_; }

 private:
  std::vector<Operation> ops_;
};

struct CheckResult {
  bool ok = true;
  std::string violation;  ///< human-readable description when !ok

  explicit operator bool() const { return ok; }
};

/// Verifies that a conforming total order exists for `history`
/// (Definition 5 + Proposition 6 ⇒ the history is strictly linearizable).
CheckResult check_strict_linearizability(const History& history);

/// Stable 64-bit fingerprint of a history: every operation's kind, value,
/// invocation/end sequence, and outcome is absorbed in order. Two runs of
/// the same seeded campaign must produce equal fingerprints — the replay
/// assertion the chaos torture suite is built on.
std::uint64_t fingerprint(const History& history);

/// Helper for tests: maps block contents to ValueIds, with the all-zero
/// block mapping to kNil.
class ValueRegistry {
 public:
  /// Registers (or looks up) a value id for `block`.
  ValueId id_of(const Block& block);

 private:
  std::map<Block, ValueId> ids_;
  ValueId next_ = 1;
};

/// One line per operation: kind, value, [invoke, end] sequence and how it
/// ended — the history a violation report prints next to its verdict.
std::string format_history(const std::vector<Operation>& ops);

/// The one history recorder of every harness (chaos campaigns, the cluster
/// tool, runtime tests): thread-safe, one global event sequencer, and one
/// operation per LOGICAL client call. A call that retries stays one
/// operation carrying one value from its first invoke to its final outcome
/// (or crash), so the oracle judges the history the application saw — the
/// retry loop included. Values are block contents; every write must carry
/// a distinct non-zero block (Appendix B's unique-value assumption).
class Recorder {
 public:
  /// Names one per-block history: an lba, or any packing of (stripe, j).
  using Key = std::uint64_t;
  /// One logical operation's projections onto the histories it touches.
  struct Op {
    std::vector<std::pair<Key, History::OpRef>> parts;
  };

  Op begin_read(const std::vector<Key>& keys) { return begin(keys, {}); }
  /// values[i] is written to keys[i].
  Op begin_write(const std::vector<Key>& keys,
                 const std::vector<Block>& values) {
    FABEC_CHECK(!values.empty());
    return begin(keys, values);
  }
  /// `values` are in key order; empty means the read returned ⊥.
  void end_read(const Op& op, const std::vector<Block>& values);
  void end_write(const Op& op, bool ok);
  /// The operation's coordinator crashed: its end is the crash event.
  void crash(const Op& op);

  struct Violation {
    Key key = 0;
    std::string message;
    std::vector<Operation> ops;  ///< the key's whole history
  };
  /// Runs the oracle over every history; also flags reads of a value no
  /// write carried.
  std::vector<Violation> check() const;
  /// fingerprint() over every history, in key order.
  std::uint64_t fingerprint() const;
  /// Number of per-block histories (keys ever touched).
  std::size_t size() const;
  /// A copy of one key's history (empty if never touched).
  History history(Key key) const;

 private:
  /// Empty `values` begins a read.
  Op begin(const std::vector<Key>& keys, const std::vector<Block>& values);

  mutable std::mutex mutex_;
  std::uint64_t seq_ = 0;
  std::map<Key, History> histories_;
  ValueRegistry registry_;
  std::set<ValueId> written_;
  std::set<Key> unknown_reads_;  ///< keys that read an unwritten value
};

}  // namespace fabec::hist
