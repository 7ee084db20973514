#include "chaos/campaign.h"

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fnv.h"
#include "core/cluster.h"
#include "fab/layout.h"
#include "hist/history.h"

namespace fabec::chaos {

namespace {

/// The shape of one register operation; a retried attempt re-dispatches the
/// same kind against a freshly picked coordinator.
enum class OpKind {
  kWriteStripe,
  kWriteBlocks,
  kWriteBlock,
  kReadStripe,
  kReadBlocks,
  kReadBlock,
};

/// One in-flight register operation and its projections onto the per-block
/// histories it touches (a stripe operation projects onto all m blocks).
struct OpRecord {
  ProcessId coord = 0;
  bool done = false;
  OpKind kind = OpKind::kReadBlock;
  StripeId stripe = 0;
  BlockIndex j = 0;
  std::uint32_t attempts_left = 0;  ///< retries remaining after this attempt
  sim::Duration backoff = 0;        ///< delay before the next retry
  sim::Time issued_at = 0;
  std::vector<std::pair<hist::History*, hist::History::OpRef>> parts;
};

class CampaignRunner {
 public:
  CampaignRunner(const CampaignConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), rng_(seed ^ 0x63616d706169676eULL),  // "campaign"
        layout_(static_cast<std::uint64_t>(cfg.num_stripes) * cfg.m, cfg.m,
                fab::Layout::kRotating) {
    result_.seed = seed;

    core::ClusterConfig cluster_cfg;
    cluster_cfg.n = cfg_.n;
    cluster_cfg.m = cfg_.m;
    cluster_cfg.code = cfg_.code;
    cluster_cfg.total_bricks = cfg_.total_bricks;
    cluster_cfg.block_size = cfg_.block_size;
    cluster_cfg.coordinator.op_deadline = cfg_.op_deadline;
    cluster_cfg.coordinator.read_cache = cfg_.read_cache;
    cluster_cfg.batch.enabled = cfg_.batch_frames;
    // Seed-derived retransmission period: varying the timer relative to the
    // (skewed) clocks shifts every retransmission interleaving between
    // campaigns. Kept well above the round trip so failure-free phases
    // don't retransmit spuriously.
    cluster_cfg.coordinator.retransmit_period =
        sim::milliseconds(1) + static_cast<sim::Duration>(rng_.next_below(
                                   sim::milliseconds(2) + 1));
    if (cfg_.max_clock_skew > 0) {
      const std::uint32_t bricks =
          cfg_.total_bricks == 0 ? cfg_.n : cfg_.total_bricks;
      for (std::uint32_t p = 0; p < bricks; ++p)
        cluster_cfg.clock_offsets.push_back(
            rng_.next_in(-cfg_.max_clock_skew, cfg_.max_clock_skew));
    }
    cluster_ = std::make_unique<core::Cluster>(cluster_cfg, rng_.next_u64());

    NemesisConfig ncfg = cfg_.nemesis;
    ncfg.window = cfg_.window;
    nemesis_ = std::make_unique<Nemesis>(cluster_.get(), ncfg, seed);
  }

  CampaignResult run() {
    cluster_->set_crash_listener([this](ProcessId victim) {
      for (auto& op : ops_)
        if (!op->done && op->coord == victim) mark_crashed(*op);
    });
    schedule_workload();
    nemesis_->arm();
    cluster_->simulator().run_until_idle();
    // Operations orphaned by a crash whose coordinator never re-ran them.
    for (auto& op : ops_)
      if (!op->done) mark_crashed(*op);
    repair_rotted();
    check();
    result_.faults = nemesis_->stats();
    for (const FaultEvent& e : nemesis_->schedule())
      result_.fault_schedule.push_back(e.describe());
    result_.events_run = cluster_->simulator().events_run();
    result_.end_time = cluster_->simulator().now();
    const core::CoordinatorStats coord = cluster_->total_coordinator_stats();
    result_.cached_read_hits = coord.cached_read_hits;
    result_.cached_read_fallbacks = coord.cached_read_fallbacks;
    result_.cached_read_misses = coord.cached_read_misses;
    result_.cache_invalidations = coord.cache_invalidations;
    result_.history_hash = hash_run();
    return std::move(result_);
  }

 private:
  hist::History& history(StripeId stripe, BlockIndex j) {
    return histories_[{stripe, j}];
  }

  std::uint64_t seq() { return ++seq_; }

  hist::ValueId fresh_value(Block* out) {
    const hist::ValueId id = next_value_++;
    Block b = zero_block(cfg_.block_size);
    FABEC_CHECK_MSG(cfg_.block_size >= sizeof(hist::ValueId),
                    "block size too small to carry unique value ids");
    for (std::size_t i = 0; i < sizeof(hist::ValueId); ++i)
      b[i] = static_cast<std::uint8_t>(id >> (8 * i));
    values_[b] = id;
    *out = std::move(b);
    return id;
  }

  std::optional<hist::ValueId> value_of(const Block& b) {
    if (b == zero_block(cfg_.block_size)) return hist::kNil;
    auto it = values_.find(b);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  void mark_crashed(OpRecord& op) {
    const std::uint64_t s = seq();
    for (auto& [h, ref] : op.parts) h->crash(ref, s);
    op.done = true;
    ++result_.ops_crashed;
  }

  void fail(const std::string& why) {
    if (result_.violation.empty()) result_.violation = why;
  }

  void schedule_workload() {
    fab::WorkloadConfig wcfg;
    wcfg.num_ops = cfg_.num_ops;
    wcfg.write_fraction = cfg_.write_fraction;
    wcfg.pattern = cfg_.pattern;
    wcfg.hotspot_blocks = std::max<std::uint64_t>(2, layout_.num_blocks() / 8);
    wcfg.mean_interarrival =
        static_cast<sim::Duration>(cfg_.window / std::max<std::uint64_t>(
                                                     1, cfg_.num_ops));
    Rng wrng = rng_.fork();
    const auto trace =
        fab::generate_workload(wcfg, layout_.num_blocks(), wrng);
    auto& sim = cluster_->simulator();
    for (const fab::WorkloadOp& op : trace)
      sim.schedule_at(op.at, [this, op] { issue(op); });
  }

  /// Picks a live coordinator uniformly-ish; kNoProcess if all are down.
  ProcessId pick_coordinator() {
    const std::uint32_t pool = cluster_->brick_count();
    for (std::uint32_t tries = 0; tries < pool; ++tries) {
      const auto candidate = static_cast<ProcessId>(rng_.next_below(pool));
      if (cluster_->processes().alive(candidate)) return candidate;
    }
    return kNoProcess;
  }

  void issue(const fab::WorkloadOp& wop) {
    const StripeId stripe = layout_.stripe_of(wop.lba);
    const BlockIndex j = layout_.index_of(wop.lba);
    const bool wide = cfg_.m >= 2 && rng_.chance(cfg_.wide_op_fraction);
    const bool whole_stripe = wide && rng_.chance(0.5);
    OpKind kind;
    if (wop.is_write)
      kind = whole_stripe ? OpKind::kWriteStripe
                          : (wide ? OpKind::kWriteBlocks : OpKind::kWriteBlock);
    else
      kind = whole_stripe ? OpKind::kReadStripe
                          : (wide ? OpKind::kReadBlocks : OpKind::kReadBlock);
    dispatch(kind, stripe, j, cfg_.client_retries, cfg_.retry_backoff);
  }

  /// Issues one attempt. The retry budget and the backoff it would use on
  /// the next attempt travel with the record.
  void dispatch(OpKind kind, StripeId stripe, BlockIndex j,
                std::uint32_t attempts_left, sim::Duration backoff) {
    const ProcessId coord = pick_coordinator();
    if (coord == kNoProcess) {
      ++result_.ops_skipped;
      return;
    }
    ++result_.ops_issued;
    auto record = std::make_shared<OpRecord>();
    record->coord = coord;
    record->kind = kind;
    record->stripe = stripe;
    record->j = j;
    record->attempts_left = attempts_left;
    record->backoff = backoff;
    record->issued_at = cluster_->simulator().now();
    ops_.push_back(record);

    switch (kind) {
      case OpKind::kWriteStripe:
        issue_write_stripe(coord, stripe, record);
        break;
      case OpKind::kWriteBlocks:
        issue_write_blocks(coord, stripe, j, record);
        break;
      case OpKind::kWriteBlock:
        issue_write_block(coord, stripe, j, record);
        break;
      case OpKind::kReadStripe:
        issue_read_stripe(coord, stripe, record);
        break;
      case OpKind::kReadBlocks:
        issue_read_blocks(coord, stripe, j, record);
        break;
      case OpKind::kReadBlock:
        issue_read_block(coord, stripe, j, record);
        break;
    }
  }

  void note_latency(const OpRecord& record) {
    const sim::Duration took = cluster_->simulator().now() - record.issued_at;
    result_.max_attempt_latency =
        std::max(result_.max_attempt_latency, took);
  }

  /// Abort-only (§5.1): the client retries ⊥ with capped, jittered,
  /// doubling backoff. Each reissue is a fresh history operation against a
  /// freshly picked coordinator — exactly how a FAB client behaves.
  void maybe_retry(const OpRecord& record) {
    if (record.attempts_left == 0) return;
    ++result_.ops_retried;
    const sim::Duration b = std::max<sim::Duration>(record.backoff, 2);
    const sim::Duration delay =
        b / 2 + static_cast<sim::Duration>(
                    rng_.next_below(static_cast<std::uint64_t>(b / 2 + 1)));
    const sim::Duration next =
        std::min<sim::Duration>(8 * std::max<sim::Duration>(
                                        cfg_.retry_backoff, 1),
                                2 * b);
    cluster_->simulator().schedule_after(
        delay, [this, kind = record.kind, stripe = record.stripe,
                j = record.j, attempts = record.attempts_left - 1, next] {
          dispatch(kind, stripe, j, attempts, next);
        });
  }

  // --- writes -----------------------------------------------------------

  void finish_write(const std::shared_ptr<OpRecord>& record,
                    core::Coordinator::WriteOutcome outcome) {
    if (record->done) return;
    record->done = true;
    note_latency(*record);
    // Both aborts and timeouts enter the history as indeterminate writes
    // (the oracle lets them take effect or not); they differ only in
    // accounting and in whether the client retries.
    const std::uint64_t s = seq();
    for (auto& [h, ref] : record->parts) h->end_write(ref, s, outcome.ok());
    if (outcome.ok()) {
      ++result_.ops_ok;
    } else if (outcome.error() == core::OpError::kTimeout) {
      ++result_.ops_timed_out;
    } else {
      ++result_.ops_aborted;
      maybe_retry(*record);
    }
  }

  void issue_write_stripe(ProcessId coord, StripeId stripe,
                          std::shared_ptr<OpRecord> record) {
    std::vector<Block> data;
    std::vector<hist::ValueId> ids;
    for (std::uint32_t b = 0; b < cfg_.m; ++b) {
      Block blk;
      ids.push_back(fresh_value(&blk));
      data.push_back(std::move(blk));
    }
    const std::uint64_t s = seq();
    for (std::uint32_t b = 0; b < cfg_.m; ++b)
      record->parts.push_back(
          {&history(stripe, b), history(stripe, b).begin_write(ids[b], s)});
    cluster_->coordinator(coord).write_stripe(
        stripe, std::move(data),
        core::Coordinator::WriteOutcomeCb(
            [this, record](core::Coordinator::WriteOutcome w) {
              finish_write(record, w);
            }));
  }

  /// One draw picks the second index; one draw in m leaves js = {j}, the
  /// one-block per-destination write (§5.2's delta form).
  void issue_write_blocks(ProcessId coord, StripeId stripe, BlockIndex j,
                          std::shared_ptr<OpRecord> record) {
    std::vector<BlockIndex> js{j};
    if (const auto step = rng_.next_below(cfg_.m); step != 0)
      js.push_back(static_cast<BlockIndex>((j + step) % cfg_.m));
    std::vector<Block> data;
    std::vector<hist::ValueId> ids;
    for (std::size_t i = 0; i < js.size(); ++i) {
      Block blk;
      ids.push_back(fresh_value(&blk));
      data.push_back(std::move(blk));
    }
    const std::uint64_t s = seq();
    for (std::size_t i = 0; i < js.size(); ++i)
      record->parts.push_back({&history(stripe, js[i]),
                               history(stripe, js[i]).begin_write(ids[i], s)});
    cluster_->coordinator(coord).write_blocks(
        stripe, js, std::move(data),
        core::Coordinator::WriteOutcomeCb(
            [this, record](core::Coordinator::WriteOutcome w) {
              finish_write(record, w);
            }));
  }

  void issue_write_block(ProcessId coord, StripeId stripe, BlockIndex j,
                         std::shared_ptr<OpRecord> record) {
    Block blk;
    const hist::ValueId id = fresh_value(&blk);
    record->parts.push_back(
        {&history(stripe, j), history(stripe, j).begin_write(id, seq())});
    cluster_->coordinator(coord).write_block(
        stripe, j, std::move(blk),
        core::Coordinator::WriteOutcomeCb(
            [this, record](core::Coordinator::WriteOutcome w) {
              finish_write(record, w);
            }));
  }

  // --- reads ------------------------------------------------------------

  void finish_read(const std::shared_ptr<OpRecord>& record,
                   const core::Coordinator::StripeOutcome& result) {
    if (record->done) return;
    record->done = true;
    note_latency(*record);
    if (result.ok()) {
      ++result_.ops_ok;
    } else if (result.error() == core::OpError::kTimeout) {
      ++result_.ops_timed_out;
    } else {
      ++result_.ops_aborted;
      maybe_retry(*record);
    }
    const std::uint64_t s = seq();
    for (std::size_t i = 0; i < record->parts.size(); ++i) {
      auto& [h, ref] = record->parts[i];
      if (!result.ok()) {
        h->end_read(ref, s, std::nullopt);
        continue;
      }
      const auto id = value_of((*result)[i]);
      if (!id.has_value()) {
        // Record as aborted (imposes no ordering constraints); the failure
        // itself is already fatal for the campaign.
        fail("read returned a value no writer ever produced");
        h->end_read(ref, s, std::nullopt);
        continue;
      }
      h->end_read(ref, s, id);
    }
  }

  void issue_read_stripe(ProcessId coord, StripeId stripe,
                         std::shared_ptr<OpRecord> record) {
    const std::uint64_t s = seq();
    for (std::uint32_t b = 0; b < cfg_.m; ++b)
      record->parts.push_back(
          {&history(stripe, b), history(stripe, b).begin_read(s)});
    cluster_->coordinator(coord).read_stripe(
        stripe, core::Coordinator::StripeOutcomeCb(
                    [this, record](core::Coordinator::StripeOutcome r) {
                      finish_read(record, r);
                    }));
  }

  void issue_read_blocks(ProcessId coord, StripeId stripe, BlockIndex j,
                         std::shared_ptr<OpRecord> record) {
    std::vector<BlockIndex> js{j, static_cast<BlockIndex>(
                                      (j + 1 + rng_.next_below(cfg_.m - 1)) %
                                      cfg_.m)};
    const std::uint64_t s = seq();
    for (BlockIndex b : js)
      record->parts.push_back(
          {&history(stripe, b), history(stripe, b).begin_read(s)});
    cluster_->coordinator(coord).read_blocks(
        stripe, js, core::Coordinator::StripeOutcomeCb(
                        [this, record](core::Coordinator::StripeOutcome r) {
                          finish_read(record, r);
                        }));
  }

  void issue_read_block(ProcessId coord, StripeId stripe, BlockIndex j,
                        std::shared_ptr<OpRecord> record) {
    record->parts.push_back(
        {&history(stripe, j), history(stripe, j).begin_read(seq())});
    cluster_->coordinator(coord).read_block(
        stripe, j, core::Coordinator::BlockOutcomeCb(
                       [this, record](core::Coordinator::BlockOutcome r) {
                         if (r.ok()) {
                           finish_read(record,
                                       core::Coordinator::StripeOutcome(
                                           std::vector<Block>{std::move(*r)}));
                         } else {
                           finish_read(record, core::Coordinator::StripeOutcome(
                                                   r.error()));
                         }
                       }));
  }

  // --- end-of-run scrub/repair (disk-fault campaigns) -------------------

  core::Coordinator::ScrubResult run_scrub(StripeId stripe) {
    auto verdict = core::Coordinator::ScrubResult::kInconclusive;
    cluster_->coordinator(pick_coordinator())
        .scrub_stripe(stripe, [&verdict](core::Coordinator::ScrubResult r) {
          verdict = r;
        });
    cluster_->simulator().run_until_idle();
    return verdict;
  }

  /// Every stripe the nemesis rotted must end the campaign healed: scrub
  /// (detect), repair (erasure-decode from the surviving replicas and write
  /// back), re-scrub (verify). A stripe overwritten or GC'd past the rot
  /// scrubs clean immediately — the corruption is already gone from the
  /// protocol-visible state.
  void repair_rotted() {
    if (cfg_.nemesis.bit_rots == 0) return;
    std::set<StripeId> stripes;
    for (const auto& [brick, stripe] : nemesis_->rotted()) stripes.insert(stripe);
    for (const StripeId stripe : stripes) {
      ++result_.stripes_scrubbed;
      const auto first = run_scrub(stripe);
      if (first == core::Coordinator::ScrubResult::kClean) {
        ++result_.scrubs_clean;
        continue;
      }
      if (first == core::Coordinator::ScrubResult::kCorrupt)
        ++result_.scrubs_corrupt;
      // Corrupt — or inconclusive from replicas settled at different
      // versions after a partial write; repair resolves both.
      bool repaired = false;
      for (int attempt = 0; attempt < 3 && !repaired; ++attempt) {
        cluster_->coordinator(pick_coordinator())
            .repair_stripe(stripe,
                           [&repaired](core::Coordinator::WriteOutcome r) {
                             repaired = r.ok();
                           });
        cluster_->simulator().run_until_idle();
      }
      if (!repaired) {
        std::ostringstream os;
        os << "stripe " << stripe << ": repair failed after bit rot";
        fail(os.str());
        continue;
      }
      ++result_.repairs_run;
      if (run_scrub(stripe) == core::Coordinator::ScrubResult::kClean) {
        ++result_.scrubs_clean;
      } else {
        std::ostringstream os;
        os << "stripe " << stripe << ": still corrupt after repair";
        fail(os.str());
      }
    }
  }

  // --- verdict ----------------------------------------------------------

  void check() {
    for (auto& [key, h] : histories_) {
      const auto verdict = hist::check_strict_linearizability(h);
      if (!verdict.ok) {
        std::ostringstream os;
        os << "stripe " << key.first << " block "
           << static_cast<std::uint32_t>(key.second) << ": "
           << verdict.violation;
        fail(os.str());
      }
    }
    if (nemesis_->stats().persistence_violations > 0)
      fail("persistent state changed across a crash (ord-ts/log must "
           "survive)");
    result_.ok = result_.violation.empty();
  }

  std::uint64_t hash_run() {
    Fnv1a h;
    for (const auto& [key, hist] : histories_) {
      h.update_value(key.first);
      h.update_value(key.second);
      h.update_value(hist::fingerprint(hist));
    }
    for (ProcessId p = 0; p < cluster_->brick_count(); ++p)
      h.update_value(cluster_->store(p).fingerprint());
    h.update_value(result_.events_run);
    h.update_value(static_cast<std::uint64_t>(result_.end_time));
    return h.digest();
  }

  CampaignConfig cfg_;
  Rng rng_;
  fab::VolumeLayout layout_;
  std::unique_ptr<core::Cluster> cluster_;
  std::unique_ptr<Nemesis> nemesis_;
  std::map<std::pair<StripeId, BlockIndex>, hist::History> histories_;
  std::vector<std::shared_ptr<OpRecord>> ops_;
  std::map<Block, hist::ValueId> values_;
  hist::ValueId next_value_ = 1;
  std::uint64_t seq_ = 0;
  CampaignResult result_;
};

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config, std::uint64_t seed) {
  return CampaignRunner(config, seed).run();
}

std::string replay_command(const CampaignConfig& config, std::uint64_t seed) {
  std::ostringstream os;
  os << "torture --replay " << seed << " --n " << config.n << " --m "
     << config.m;
  if (config.code.family != erasure::CodeSpec::Family::kRs)
    os << " --code " << erasure::to_string(config.code);
  if (config.total_bricks != 0) os << " --bricks " << config.total_bricks;
  os << " --stripes " << config.num_stripes << " --ops " << config.num_ops
     << " --write-frac " << config.write_fraction << " --wide-frac "
     << config.wide_op_fraction << " --window-us "
     << config.window / 1000 << " --skew-us " << config.max_clock_skew / 1000
     << " --crashes " << config.nemesis.crashes << " --partitions "
     << config.nemesis.partitions << " --isolations "
     << config.nemesis.isolations << " --drop-ramps "
     << config.nemesis.drop_ramps << " --jitter-ramps "
     << config.nemesis.jitter_ramps << " --midphase "
     << config.nemesis.mid_phase_crashes;
  if (config.nemesis.quorum_blackouts != 0)
    os << " --blackouts " << config.nemesis.quorum_blackouts;
  if (config.nemesis.dup_ramps != 0)
    os << " --dup-ramps " << config.nemesis.dup_ramps;
  if (config.nemesis.bit_rots != 0)
    os << " --bit-rots " << config.nemesis.bit_rots;
  if (config.batch_frames) os << " --batch-frames";
  if (config.op_deadline != 0)
    os << " --deadline-us " << config.op_deadline / 1000;
  if (config.client_retries != 0)
    os << " --retries " << config.client_retries;
  if (!config.read_cache) os << " --no-read-cache";
  os << " --verbose";
  return os.str();
}

}  // namespace fabec::chaos
