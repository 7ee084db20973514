// One simulated FAB stripe group: n bricks, each carrying a replica, a
// coordinator, persistent storage, and a timestamp source, wired through a
// simulated asynchronous network (Figure 1's brick-to-brick fabric).
//
// This is the main test/bench entry point for the register algorithm. The
// volume layer (src/fab) builds multi-stripe virtual disks on top of it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/timestamp.h"
#include "common/types.h"
#include "core/batch.h"
#include "core/coordinator.h"
#include "core/group_layout.h"
#include "core/messages.h"
#include "core/replica.h"
#include "erasure/code_family.h"
#include "quorum/quorum.h"
#include "sim/executor.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "storage/brick_store.h"

namespace fabec::core {

struct ClusterConfig {
  std::uint32_t n = 8;  ///< bricks per stripe group
  std::uint32_t m = 5;  ///< data blocks per stripe
  /// Erasure-code family of every stripe group: Reed–Solomon (any m of n
  /// decode) by default, or Azure-style LRC ("lrc:<l>,<g>", which requires
  /// n == m + l + g) for locality-aware repair. Non-MDS families shrink the
  /// per-group fault budget to floor(tolerance / 2) — see quorum::Config.
  erasure::CodeSpec code;
  /// Bricks in the whole pool; 0 means n (a single group, identity
  /// placement). When total_bricks > n, stripes rotate over the pool in
  /// n-brick segment groups (see GroupLayout).
  std::uint32_t total_bricks = 0;
  std::size_t block_size = 1024;
  /// Service time per disk I/O at a brick (0 = instantaneous, the Table 1
  /// accounting mode). When nonzero, a replica's reply is delayed by
  /// (disk reads + writes performed) x this duration — the simplest model
  /// that makes operations disk-bound when B is large relative to δ.
  /// Timestamp (NVRAM) updates stay free, matching the paper's conventions.
  sim::Duration disk_service_time = 0;
  sim::NetworkConfig net;
  Coordinator::Options coordinator;
  /// Per-brick outgoing-message batching (core/batch.h). Disabled by
  /// default: every message travels as a singleton envelope, the historical
  /// behavior. Enabled, each brick packs the tick's messages per
  /// destination into one envelope — the network then drops/duplicates/
  /// reorders whole frames.
  BatchConfig batch;
  /// Optional per-process clock offset (size n or empty): models clock skew
  /// for the abort-rate ablation. Timestamps stay correct under any skew
  /// (§3); only the abort rate changes.
  std::vector<sim::Duration> clock_offsets;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config, std::uint64_t seed = 1);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- component access -------------------------------------------------
  /// Number of bricks in the pool (>= config().n).
  std::uint32_t brick_count() const { return layout_.total_bricks(); }
  const GroupLayout& group_layout() const { return layout_; }
  sim::Simulator& simulator() { return sim_; }
  sim::Executor& executor() { return executor_; }
  sim::Network<Envelope>& network() { return net_; }
  sim::ProcessSet& processes() { return procs_; }
  Coordinator& coordinator(ProcessId p) { return *bricks_[p]->coordinator; }
  const RegisterReplica& replica(ProcessId p) const {
    return *bricks_[p]->replica;
  }
  storage::BrickStore& store(ProcessId p) { return bricks_[p]->store; }
  const erasure::CodeFamily& codec() const { return *codec_; }
  const ClusterConfig& config() const { return config_; }
  quorum::Config quorum_config() const {
    return {config_.n, config_.m, codec_->max_erasures_any()};
  }

  // --- failure injection --------------------------------------------------
  /// Crashes brick p: volatile state (in-flight coordinator operations,
  /// reply dedup cache) is lost; the persistent store survives. Notifies
  /// the crash listener (if any) first, while the victim's in-flight
  /// operations are still observable.
  void crash(ProcessId p);
  /// Recovers brick p; it serves requests again immediately (§1.3).
  void recover_brick(ProcessId p) { procs_.recover(p); }

  // --- failure scheduling (fault-injection campaigns, src/chaos) ----------
  /// Schedules crash(p) / recover_brick(p) at absolute virtual time `at`.
  /// Pure sugar over simulator().schedule_at, but it keeps every injected
  /// fault on the cluster's API so campaigns read as schedules.
  sim::EventId schedule_crash(sim::Time at, ProcessId p);
  sim::EventId schedule_recovery(sim::Time at, ProcessId p);

  /// Observer invoked just before an injected crash of a still-live brick
  /// takes effect. History recorders use it to mark the victim's in-flight
  /// operations as crashed (strict linearizability orders them by the
  /// crash event, Appendix B).
  using CrashListener = std::function<void(ProcessId)>;
  void set_crash_listener(CrashListener listener) {
    crash_listener_ = std::move(listener);
  }

  /// Installs `probe` as the phase probe of every coordinator; it receives
  /// (coordinator brick, phase op id) at each quorum-phase start.
  void set_phase_probe(std::function<void(ProcessId, OpId)> probe);
  /// Swaps brick p for a blank replacement: persistent state is wiped and
  /// the (new) brick comes up empty. The replacement counts against the
  /// fault budget until fab::rebuild_brick restores its blocks.
  void replace_brick(ProcessId p) {
    crash(p);  // ensure volatile state is dropped (and notify the listener)
    bricks_[p]->store.wipe();
    procs_.recover(p);
  }

  /// Starts one operation and runs the simulator until it completes. A
  /// coordinator crash leaves the operation without an outcome (the
  /// simulator goes idle): that reads as ⊥.
  template <typename T>
  Outcome<T> run_sync(
      const std::function<void(std::function<void(Outcome<T>)>)>& start) {
    std::optional<Outcome<T>> result;
    start([&result](Outcome<T> r) { result = std::move(r); });
    sim_.run_until_pred([&result] { return result.has_value(); });
    return result.has_value() ? std::move(*result) : OpError::kAborted;
  }

  // --- synchronous conveniences (tests & benches) -------------------------
  // Each starts the operation at coordinator `coord` and runs the simulator
  // until it completes. Returns the abort value (⊥ -> nullopt/false) if the
  // operation aborts, or if its coordinator crashes before completion.
  std::optional<std::vector<Block>> read_stripe(ProcessId coord,
                                                StripeId stripe);
  bool write_stripe(ProcessId coord, StripeId stripe,
                    std::vector<Block> data);
  std::optional<Block> read_block(ProcessId coord, StripeId stripe,
                                  BlockIndex j);
  bool write_block(ProcessId coord, StripeId stripe, BlockIndex j,
                   Block block);
  std::optional<std::vector<Block>> read_blocks(ProcessId coord,
                                                StripeId stripe,
                                                std::vector<BlockIndex> js);
  bool write_blocks(ProcessId coord, StripeId stripe,
                    std::vector<BlockIndex> js, std::vector<Block> blocks);

  // --- aggregate statistics ------------------------------------------------
  storage::DiskStats total_io() const;
  void reset_io_stats();
  CoordinatorStats total_coordinator_stats() const;
  BatchStats total_batch_stats() const;
  std::size_t total_log_entries() const;
  std::size_t total_log_blocks() const;

 private:
  struct Brick {
    explicit Brick(std::size_t block_size) : store(block_size) {}

    storage::BrickStore store;  // persistent: survives crashes
    std::unique_ptr<RegisterReplica> replica;
    std::unique_ptr<Coordinator> coordinator;
    std::unique_ptr<TimestampSource> ts_source;
    /// Volatile at-most-once RPC cache: replays the reply for a
    /// retransmitted request instead of re-executing the handler, so
    /// retransmissions cannot turn an applied write into a spurious
    /// status=false. Cleared by crashes — a post-recovery retransmission
    /// may then report false, which at worst aborts the operation.
    std::map<std::pair<ProcessId, OpId>, Message> reply_cache;
    /// Outgoing batcher (volatile): unsent frames die with the brick.
    std::unique_ptr<BatchingSender> batcher;
  };

  /// Routes one outgoing message from brick `p` — through p's batcher when
  /// batching is enabled, as a singleton envelope otherwise.
  void send_from(ProcessId p, ProcessId dest, Message msg);
  void deliver(ProcessId from, ProcessId to, Envelope envelope);
  void deliver_one(ProcessId from, ProcessId to, Message msg);

  ClusterConfig config_;
  GroupLayout layout_;
  std::unique_ptr<const erasure::CodeFamily> codec_;
  sim::Simulator sim_;
  sim::SimulatorExecutor executor_{&sim_};
  sim::Network<Envelope> net_;
  sim::ProcessSet procs_;
  std::vector<std::unique_ptr<Brick>> bricks_;
  CrashListener crash_listener_;
};

}  // namespace fabec::core
