// A FAB logical volume: a virtual disk of fixed-size blocks, erasure-coded
// across the bricks of a cluster, with one storage-register instance per
// stripe (§4: "we can then independently run an instance of this algorithm
// for each stripe"; the instances share no state).
//
// Clients may direct any operation at any brick (Figure 1); by default the
// disk round-robins coordinators across live bricks, which is both load
// balancing and what exercises the fully decentralized coordination.
//
// Block reads and writes run under fab/retry.h's one retry loop (§5.1's
// "clients retry the operation"), resending only attempts that had no
// effect.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
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
  using StripeOutcomeCb = core::Coordinator::StripeOutcomeCb;

  /// The cluster must outlive the disk. The disk's stripe width is the
  /// cluster's m.
  VirtualDisk(core::Cluster* cluster, VirtualDiskConfig config);

  std::uint64_t capacity_blocks() const { return layout_.num_blocks(); }
  StripeId stripe_base() const { return stripe_base_; }
  std::size_t block_size() const { return cluster_->config().block_size; }
  const VolumeLayout& layout() const { return layout_; }

  // --- asynchronous single-block I/O ------------------------------------
  /// Reads logical block `lba` through coordinator `coord` (kNoProcess =
  /// pick round-robin among live bricks). Applies the RetryPolicy; the
  /// outcome is the final attempt's.
  void read(Lba lba, BlockOutcomeCb done, ProcessId coord = kNoProcess);
  void write(Lba lba, Block data, WriteOutcomeCb done,
             ProcessId coord = kNoProcess);

  // --- synchronous I/O (runs the simulator until completion) ------------
  // One register operation per stripe the span touches, each under the
  // RetryPolicy: a whole stripe is one read-stripe / write-stripe (the RAID
  // small-write vs full-stripe-write distinction), a part of one is one
  // multi-block operation (footnote 2; over one block, §5.2's delta write).
  std::optional<Block> read_sync(Lba lba, ProcessId coord = kNoProcess);
  bool write_sync(Lba lba, Block data, ProcessId coord = kNoProcess);
  /// Reads [lba, lba + count), or nullopt if any stripe's read fails.
  std::optional<std::vector<Block>> read_range_sync(
      Lba lba, std::uint64_t count, ProcessId coord = kNoProcess);
  /// Writes [lba, lba + data.size()); false if any stripe's write fails.
  bool write_range_sync(Lba lba, const std::vector<Block>& data,
                        ProcessId coord = kNoProcess);

  core::Cluster& cluster() { return *cluster_; }
  const ClientStats& client_stats() const { return stats_; }

 private:
  /// kNoProcess when no live brick is available (the op is misrouted).
  ProcessId pick_coordinator(ProcessId requested);

  /// Starts one attempt of an operation at a coordinator.
  template <typename T>
  using Starter =
      std::function<void(core::Coordinator&, std::function<void(T)>)>;
  /// Runs an operation under the RetryPolicy, each attempt at a freshly
  /// picked coordinator; a write passes `resolve` (see run_with_retries).
  template <typename T>
  void with_retries(Starter<T> start, std::function<void(T)> done,
                    ProcessId requested, Starter<T> resolve = nullptr);
  /// One register operation on data indices `js` of global stripe `stripe`
  /// under the RetryPolicy: the stripe operation if `whole` (js is then
  /// 0..m-1), else the multi-block one. Blocks are in js order.
  void read_blocks(StripeId stripe, std::vector<BlockIndex> js, bool whole,
                   StripeOutcomeCb done, ProcessId coord);
  void write_blocks(StripeId stripe, std::vector<BlockIndex> js,
                    std::vector<Block> blocks, bool whole,
                    WriteOutcomeCb done, ProcessId coord);
  /// Groups the span [lba, lba + count) by stripe: stripe -> span offsets,
  /// in block-index order.
  std::map<StripeId, std::vector<std::uint64_t>> by_stripe(
      Lba lba, std::uint64_t count) const;

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
