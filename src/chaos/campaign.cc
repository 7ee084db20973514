#include "chaos/campaign.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fnv.h"
#include "core/cluster.h"
#include "fab/layout.h"
#include "fab/retry.h"
#include "hist/history.h"

namespace fabec::chaos {

namespace {

template <typename T>
using Callback = std::function<void(T)>;
/// Starts one attempt of a logical operation at a coordinator.
template <typename T>
using Starter = std::function<void(core::Coordinator&, Callback<T>)>;

/// One logical register operation: every attempt the retry loop makes,
/// recorded as ONE history operation per block it touches.
struct OpRecord {
  StripeId stripe = 0;
  std::vector<BlockIndex> js;
  std::vector<Block> values;  ///< writes: one fresh value per index
  /// Coordinator of the attempt in flight; kNoProcess between attempts.
  ProcessId coord = kNoProcess;
  bool done = false;
  std::optional<core::OpError> last_error;  ///< of the previous attempt
  sim::Time attempt_started = 0;
  hist::Recorder::Op hist;
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
  hist::Recorder::Key key(StripeId stripe, BlockIndex j) const {
    return stripe * cfg_.m + j;
  }

  Block fresh_value() {
    FABEC_CHECK_MSG(cfg_.block_size >= sizeof(next_value_),
                    "block size too small to carry unique values");
    Block b = zero_block(cfg_.block_size);
    const std::uint64_t id = next_value_++;
    for (std::size_t i = 0; i < sizeof(id); ++i)
      b[i] = static_cast<std::uint8_t>(id >> (8 * i));
    return b;
  }

  void mark_crashed(OpRecord& op) {
    recorder_.crash(op.hist);
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

  /// Draws one logical operation — its kind, blocks and (for writes) its
  /// values, fixed across every attempt — and runs it under cfg_.retry.
  void issue(const fab::WorkloadOp& wop) {
    using core::Coordinator;
    auto op = std::make_shared<OpRecord>();
    op->stripe = layout_.stripe_of(wop.lba);
    const BlockIndex j = layout_.index_of(wop.lba);
    const bool wide = cfg_.m >= 2 && rng_.chance(cfg_.wide_op_fraction);
    const bool whole = wide && rng_.chance(0.5);
    for (std::uint32_t b = 0; b < (whole ? cfg_.m : 1); ++b)
      op->js.push_back(whole ? b : j);
    if (wop.is_write) {
      // One draw picks the second index; one draw in m leaves js = {j},
      // the one-block per-destination write (§5.2's delta form).
      if (wide && !whole)
        if (const auto step = rng_.next_below(cfg_.m); step != 0)
          op->js.push_back(static_cast<BlockIndex>((j + step) % cfg_.m));
      for (std::size_t i = 0; i < op->js.size(); ++i)
        op->values.push_back(fresh_value());
      run<Coordinator::WriteOutcome>(
          op,
          [op, wide, whole](Coordinator& c, auto cb) {
            if (whole)
              c.write_stripe(op->stripe, op->values, std::move(cb));
            else if (wide)
              c.write_blocks(op->stripe, op->js, op->values, std::move(cb));
            else
              c.write_block(op->stripe, op->js[0], op->values[0],
                            std::move(cb));
          },
          [op](Coordinator& c, auto cb) {
            c.read_blocks(op->stripe, op->js, [op, cb](auto read) {
              cb(fab::settle(read, op->values));
            });
          });
    } else {
      if (wide && !whole)
        op->js.push_back(static_cast<BlockIndex>(
            (j + 1 + rng_.next_below(cfg_.m - 1)) % cfg_.m));
      run<Coordinator::StripeOutcome>(op, [op, wide, whole](
                                              Coordinator& c, auto cb) {
        if (whole) {
          c.read_stripe(op->stripe, std::move(cb));
        } else if (wide) {
          c.read_blocks(op->stripe, op->js, std::move(cb));
        } else {
          c.read_block(op->stripe, op->js[0], [cb](auto r) {
            cb(r.ok() ? Coordinator::StripeOutcome({std::move(*r)})
                      : Coordinator::StripeOutcome(r.error()));
          });
        }
      });
    }
  }

  /// The client loop: fab::run_with_retries over the simulator, each
  /// attempt at a freshly picked coordinator. An op whose first attempt
  /// finds no live coordinator is skipped, never recorded. A write passes
  /// `resolve`, the read that settles it after an abort after send.
  template <typename T>
  void run(const std::shared_ptr<OpRecord>& op, Starter<T> start,
           Starter<T> resolve = nullptr) {
    auto attempt = [this, op](Starter<T> f, bool resend) {
      return [this, op, f, resend](Callback<T> cb) {
        const ProcessId coord = pick_coordinator();
        if (coord == kNoProcess) {
          cb(core::OpError::kMisrouted);
          return;
        }
        if (op->hist.parts.empty()) {  // first attempt
          ++result_.ops_issued;
          ops_.push_back(op);
          std::vector<hist::Recorder::Key> keys;
          for (BlockIndex b : op->js) keys.push_back(key(op->stripe, b));
          op->hist = op->values.empty()
                         ? recorder_.begin_read(keys)
                         : recorder_.begin_write(keys, op->values);
        } else {
          ++result_.ops_retried;
          if (resend && op->last_error == core::OpError::kAbortedAfterSend)
            ++result_.retries_after_send;
        }
        op->coord = coord;
        op->attempt_started = cluster_->simulator().now();
        f(cluster_->coordinator(coord), [this, op, cb](T outcome) {
          result_.max_attempt_latency = std::max(
              result_.max_attempt_latency,
              cluster_->simulator().now() - op->attempt_started);
          op->coord = kNoProcess;
          op->last_error = outcome.ok() ? std::nullopt
                                        : std::optional(outcome.error());
          cb(std::move(outcome));
        });
      };
    };
    fab::run_with_retries<T>(
        cluster_->executor(), cfg_.retry, rng_, attempt(start, true),
        [this, op](T outcome, std::uint32_t) {
          if (op->hist.parts.empty()) {
            ++result_.ops_skipped;
            return;
          }
          finish(*op, outcome);
        },
        resolve ? attempt(resolve, false) : std::function<void(Callback<T>)>());
  }

  /// Records and tallies a logical op's final outcome. Aborts and timeouts
  /// enter the history as indeterminate: the oracle lets them take effect
  /// or not.
  template <typename T>
  void finish(OpRecord& op, const T& outcome) {
    op.done = true;
    if constexpr (std::is_same_v<T, core::Coordinator::WriteOutcome>)
      recorder_.end_write(op.hist, outcome.ok());
    else
      recorder_.end_read(op.hist,
                         outcome.ok() ? *outcome : std::vector<Block>{});
    if (outcome.ok()) {
      ++result_.ops_ok;
    } else if (outcome.error() == core::OpError::kTimeout) {
      ++result_.ops_timed_out;
    } else {
      ++result_.ops_aborted;
      if (outcome.error() == core::OpError::kAbortedAfterSend)
        ++result_.ops_aborted_after_send;
    }
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
    for (const hist::Recorder::Violation& v : recorder_.check()) {
      std::ostringstream os;
      os << "stripe " << v.key / cfg_.m << " block " << v.key % cfg_.m
         << ": " << v.message << "\n"
         << hist::format_history(v.ops);
      fail(os.str());
    }
    if (nemesis_->stats().persistence_violations > 0)
      fail("persistent state changed across a crash (ord-ts/log must "
           "survive)");
    result_.ok = result_.violation.empty();
  }

  std::uint64_t hash_run() {
    Fnv1a h;
    h.update_value(recorder_.fingerprint());
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
  hist::Recorder recorder_;
  std::vector<std::shared_ptr<OpRecord>> ops_;
  std::uint64_t next_value_ = 1;
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
  if (config.retry.max_attempts > 1)
    os << " --retries " << config.retry.max_attempts - 1;
  if (!config.read_cache) os << " --no-read-cache";
  os << " --verbose";
  return os.str();
}

}  // namespace fabec::chaos
