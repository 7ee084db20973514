// A FAB logical volume: a virtual disk of fixed-size blocks, erasure-coded
// across the bricks of a cluster, with one storage-register instance per
// stripe (§4: "we can then independently run an instance of this algorithm
// for each stripe"; the instances share no state).
//
// Clients may direct any operation at any brick (Figure 1); by default the
// disk round-robins coordinators across live bricks, which is both load
// balancing and what exercises the fully decentralized coordination.
//
// The disk is also where the paper's "clients retry the operation" (§5.1)
// lives: an aborted (⊥) block operation is retried under the RetryPolicy of
// fab/retry.h.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/cluster.h"
#include "core/outcome.h"
#include "fab/layout.h"
#include "fab/retry.h"

namespace fabec::fab {

struct VirtualDiskConfig {
  std::uint64_t num_blocks = 0;  ///< logical capacity in blocks
  Layout layout = Layout::kRotating;
  /// First stripe id this disk uses; the disk owns the contiguous range
  /// [stripe_base, stripe_base + num_blocks/m). Lets several volumes share
  /// one cluster without colliding (see VolumeManager).
  StripeId stripe_base = 0;
  RetryPolicy retry;
};

class VirtualDisk {
 public:
  using BlockOutcome = core::Coordinator::BlockOutcome;
  using WriteOutcome = core::Coordinator::WriteOutcome;
  using BlockOutcomeCb = core::Coordinator::BlockOutcomeCb;
  using WriteOutcomeCb = core::Coordinator::WriteOutcomeCb;

  /// The cluster must outlive the disk. The disk's stripe width is the
  /// cluster's m.
  VirtualDisk(core::Cluster* cluster, VirtualDiskConfig config);

  std::uint64_t capacity_blocks() const { return layout_.num_blocks(); }
  StripeId stripe_base() const { return stripe_base_; }
  std::size_t block_size() const { return cluster_->config().block_size; }
  const VolumeLayout& layout() const { return layout_; }

  // --- asynchronous single-block I/O ------------------------------------
  /// Reads logical block `lba` through coordinator `coord` (kNoProcess =
  /// pick round-robin among live bricks). Applies the RetryPolicy to
  /// aborts; the outcome is the final attempt's.
  void read(Lba lba, BlockOutcomeCb done, ProcessId coord = kNoProcess);
  void write(Lba lba, Block data, WriteOutcomeCb done,
             ProcessId coord = kNoProcess);

  // --- synchronous I/O (runs the simulator until completion) ------------
  std::optional<Block> read_sync(Lba lba, ProcessId coord = kNoProcess);
  bool write_sync(Lba lba, Block data, ProcessId coord = kNoProcess);

  /// Reads [lba, lba + count) and returns the blocks, or nullopt if any
  /// block read aborts. Whole-stripe spans use one read-stripe operation.
  std::optional<std::vector<Block>> read_range_sync(
      Lba lba, std::uint64_t count, ProcessId coord = kNoProcess);
  /// Writes [lba, lba + data.size()). Spans covering a whole stripe are
  /// issued as one write-stripe (the RAID small-write vs full-stripe-write
  /// distinction); partial spans fall back to per-block writes.
  bool write_range_sync(Lba lba, const std::vector<Block>& data,
                        ProcessId coord = kNoProcess);

  core::Cluster& cluster() { return *cluster_; }
  const ClientStats& client_stats() const { return stats_; }

 private:
  /// kNoProcess when no live brick is available (the op is misrouted).
  ProcessId pick_coordinator(ProcessId requested);

  /// Starts one attempt of a block operation at a coordinator.
  template <typename T>
  using Starter =
      std::function<void(core::Coordinator&, std::function<void(T)>)>;
  /// Runs attempt number `attempt` of a read or write, and schedules the
  /// next one after a jittered backoff if it aborts within the budget.
  template <typename T>
  void attempt(Starter<T> start, std::uint32_t attempt, sim::Duration backoff,
               std::function<void(T)> done, ProcessId requested);
  /// Jittered wait for the current attempt, and the grown cap-bounded
  /// backoff for the next one.
  sim::Duration jittered(sim::Duration backoff);
  sim::Duration grown(sim::Duration backoff) const;

  /// Global stripe id for a volume-relative stripe index.
  StripeId global_stripe(StripeId local) const { return stripe_base_ + local; }

  core::Cluster* cluster_;
  VolumeLayout layout_;
  StripeId stripe_base_;
  RetryPolicy retry_;
  Rng rng_;
  ClientStats stats_;
  ProcessId next_coord_ = 0;
};

}  // namespace fabec::fab
