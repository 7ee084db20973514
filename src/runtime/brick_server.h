// BrickServer: everything a `brickd` process does, as a library class.
//
// One brick of the pool, hosted behind an EpollLoop and a DatagramMux:
// protocol requests arrive as datagrams, are deduplicated against the reply
// cache, journaled (mutating kinds only — core/journal.h), handled by the
// RegisterReplica, and answered to the sender's observed source address.
// The server is replica-side only: in the multi-process deployment the
// *client* runs the coordinator (any process may coordinate, §4.1 — the
// volume library exercises exactly that), so a brickd needs no timestamp
// source, no peer map, and no retransmit machinery of its own.
//
// Durability is delegated to core::PersistentState (snapshot generations +
// journal segments): recovery loads the newest valid snapshot and replays
// the journal suffix; compaction runs inline once the WAL outgrows its
// threshold. A journal append failure (ENOSPC, EIO) does NOT abort the
// process — the op is refused with status=false (the client sees a typed
// kAborted and retries elsewhere/later) and the brick rides it out in
// read-only degraded mode until an append succeeds again. A background
// scrub pass periodically re-verifies every stored block's CRC plus the
// on-disk files, quarantining (reporting, never hiding) corrupt registers;
// the replica handlers themselves serve CRC-failing blocks to no one, so
// coordinator-side scrub/repair re-decodes them from the surviving m
// replicas.
//
// Living in src/runtime rather than tools/ keeps the daemon shell-thin
// (tools/brickd_main.cc is argv + signals) and lets tests boot whole
// multi-server clusters in one process against real sockets.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "core/group_layout.h"
#include "core/persistence.h"
#include "core/replica.h"
#include "erasure/code_family.h"
#include "runtime/brick_config.h"
#include "runtime/datagram_mux.h"
#include "runtime/epoll_loop.h"
#include "storage/brick_store.h"
#include "storage/env.h"

namespace fabec::runtime {

struct BrickServerStats {
  std::uint64_t requests_handled = 0;
  std::uint64_t replies_from_cache = 0;  ///< duplicate (retransmitted) reqs
  std::uint64_t journal_appends = 0;
  std::uint64_t journal_replayed = 0;  ///< records recovered at startup
  /// Torn/corrupt journal bytes dropped during recovery (unacked suffix).
  std::uint64_t journal_tail_dropped = 0;
  std::uint64_t journal_append_errors = 0;
  /// Mutations refused with status=false while the WAL was unwritable.
  std::uint64_t refused_read_only = 0;
  std::uint64_t dropped = 0;  ///< non-request traffic (we coordinate nothing)
  std::uint64_t scrub_passes = 0;
  /// Corrupt log entries found by the most recent scrub pass (a gauge:
  /// repair + GC bring it back to zero).
  std::uint64_t scrub_corrupt_entries = 0;
};

class BrickServer {
 public:
  /// Validated config in, no side effects until init(). `env` overrides
  /// the storage environment (fault-injection tests); nullptr = real disk.
  explicit BrickServer(BrickConfig config, std::uint64_t seed = 1,
                       storage::Env* env = nullptr);
  ~BrickServer();

  BrickServer(const BrickServer&) = delete;
  BrickServer& operator=(const BrickServer&) = delete;

  /// Creates the store directory, recovers snapshot + journal, binds the
  /// socket, and writes the port file (if configured). False + error on
  /// failure.
  bool init(std::string* error);

  /// Drives the loop on the calling thread until stop() — the daemon shape.
  void run();
  /// Drives the loop on a background thread — the in-process-test shape.
  void start();
  /// Stops the loop (any thread; idempotent). After stop() the socket is
  /// still bound until destruction.
  void stop();

  ProcessId brick_id() const { return config_.brick_id; }
  /// Bound UDP port; valid after init().
  std::uint16_t port() const;
  const BrickConfig& config() const { return config_; }
  EpollLoop& loop() { return loop_; }
  const BrickServerStats& stats() const { return stats_; }
  /// Replica-side protocol counters, including the read-validation verdicts
  /// this brick issued for coordinators' cached-read probes (DESIGN.md §13).
  const core::ReplicaStats& replica_stats() const {
    return replica_->stats();
  }
  const core::PersistentState::Stats& persistence_stats() const {
    return persist_->stats();
  }
  /// True while journal appends are failing; mutations are refused.
  bool read_only() const { return read_only_; }
  /// Stripes whose stored state currently fails CRC verification, per the
  /// last scrub pass. Quarantine is observability-only: the replica still
  /// answers protocol requests (refusing them would block the very
  /// recovery that heals it) but serves the corrupt bytes to no one.
  const std::set<StripeId>& quarantined() const { return quarantined_; }

  /// Test introspection; touch only via loop().run_sync or before run.
  storage::BrickStore& store() { return *store_; }
  core::PersistentState& persistence() { return *persist_; }
  /// Runs one scrub pass now (also what the timer does); returns the
  /// number of corrupt log entries found.
  std::size_t scrub_once();
  /// Forces a compaction regardless of threshold; false on I/O failure.
  bool compact_now();

 private:
  void on_messages(ProcessId from, std::vector<core::Message> msgs);
  void handle_request(ProcessId from, core::Message msg);
  void maybe_compact();
  void schedule_scrub();

  BrickConfig config_;
  core::GroupLayout layout_;
  std::unique_ptr<const erasure::CodeFamily> codec_;
  EpollLoop loop_;
  storage::Env& env_;
  std::unique_ptr<core::PersistentState> persist_;
  std::unique_ptr<storage::BrickStore> store_;
  std::unique_ptr<core::RegisterReplica> replica_;
  std::unique_ptr<DatagramMux> mux_;
  BrickServerStats stats_;
  bool read_only_ = false;
  std::set<StripeId> quarantined_;

  /// At-most-once execution of retransmitted requests — but bounded: a
  /// daemon outliving millions of ops cannot keep every reply. FIFO eviction is safe because a retransmit
  /// of an evicted request re-executes an (idempotent) old mutation whose
  /// effect is already in the log.
  static constexpr std::size_t kReplyCacheCap = 8192;
  std::map<std::pair<ProcessId, core::OpId>, core::Message> reply_cache_;
  std::deque<std::pair<ProcessId, core::OpId>> reply_cache_order_;
};

}  // namespace fabec::runtime
