// Torture campaigns: seeded end-to-end runs of workload × nemesis × checker.
//
// One campaign builds a fresh simulated cluster (with seed-derived clock
// skew and retransmission timing), drives a src/fab workload through
// randomly chosen coordinators as stripe/block/multi-block register
// operations under the client retry loop, lets a Nemesis inject its fault
// schedule, records every logical operation into per-block histories
// (hist::Recorder), and finally checks each history against the Appendix B
// conforming-total-order oracle.
//
// Reproducibility contract: run_campaign(config, seed) is a pure function.
// The result carries a history hash covering every recorded history and
// every brick's final persistent state; re-running a seed must reproduce
// the hash bit-for-bit (tests assert this), so a failure report of
// "seed S violated strict linearizability" is a complete repro recipe —
// see replay_command().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/nemesis.h"
#include "erasure/code_family.h"
#include "fab/retry.h"
#include "fab/workload.h"
#include "sim/time.h"

namespace fabec::chaos {

struct CampaignConfig {
  // Cluster shape.
  std::uint32_t n = 8;             ///< bricks per stripe group
  std::uint32_t m = 5;             ///< data blocks per stripe
  /// Erasure-code family of the stripe groups ("rs" or "lrc:<l>,<g>").
  /// LRC campaigns exercise the locality-aware repair paths — degraded
  /// reads and plan-driven rebuilds — against the linearizability oracle.
  erasure::CodeSpec code;
  std::uint32_t total_bricks = 0;  ///< 0 = single group
  std::uint32_t num_stripes = 4;
  std::size_t block_size = 16;
  /// Route every brick's outgoing messages through per-destination frame
  /// batching (core/batch.h): the network's drop/duplicate/reorder unit
  /// becomes a whole multi-op frame, so one lost envelope now loses many
  /// op payloads at once and one duplicated envelope replays them all.
  bool batch_frames = false;
  /// Coordinator-side per-stripe timestamp cache (DESIGN.md §13): reads of
  /// a cached stripe go to a sub-quorum contact set in one round, falling
  /// back to the quorum path on any validation failure. On by default here
  /// (unlike the library) so every chaos interleaving — crashes, partitions,
  /// bit-rot, clock skew — exercises the cache coherence argument against
  /// the linearizability oracle.
  bool read_cache = true;

  // Workload (mapped over the volume rotating-layout, §3).
  std::uint64_t num_ops = 100;
  double write_fraction = 0.5;
  fab::AccessPattern pattern = fab::AccessPattern::kHotspot;
  /// Fraction of operations widened from single-block to whole-stripe or
  /// multi-block (footnote 2) operations.
  double wide_op_fraction = 0.3;
  /// Operations arrive uniformly in [0, window).
  sim::Duration window = 250 * sim::kDefaultDelta;

  // Faults. nemesis.window is overridden to `window`.
  NemesisConfig nemesis;

  /// Per-phase coordinator deadline (0 = wait forever, the paper's pure
  /// asynchronous model). With a deadline every operation completes or
  /// fails with OpError::kTimeout within bounded time even when the nemesis
  /// denies a quorum; timeouts are recorded as indeterminate in the
  /// histories, so the linearizability verdict is unaffected — deadlines
  /// trade liveness, never safety.
  sim::Duration op_deadline = 0;
  /// Client retries (fab/retry.h): each logical call, with all its
  /// attempts, is one history operation, so the oracle judges them too.
  fab::RetryPolicy retry;

  /// Per-brick clock offsets are drawn uniformly in [-skew, +skew]; skews
  /// both timestamp generation (§2.3 stays correct, abort rate changes)
  /// and, via the derived retransmission-period scaling, the quorum()
  /// retransmission timers.
  sim::Duration max_clock_skew = 2 * sim::kDefaultDelta;
};

struct CampaignResult {
  bool ok = false;
  std::string violation;  ///< first check failure, empty when ok
  std::uint64_t seed = 0;

  /// Fingerprint of every per-block history plus every brick's final
  /// persistent state; the replay-determinism assertion compares these.
  std::uint64_t history_hash = 0;

  // Operation outcomes.
  std::uint64_t ops_issued = 0;
  std::uint64_t ops_ok = 0;
  // Logical operations: each counts once, however many attempts it made.
  std::uint64_t ops_aborted = 0;   ///< returned ⊥ (any abort kind)
  std::uint64_t ops_aborted_after_send = 0;  ///< of which kAbortedAfterSend
  std::uint64_t ops_timed_out = 0; ///< op_deadline expired mid-phase
  std::uint64_t ops_retried = 0;   ///< later attempts the client issued
  /// Writes resent after an abort after send; the retry rule keeps it 0.
  std::uint64_t retries_after_send = 0;
  std::uint64_t ops_crashed = 0;   ///< coordinator crashed mid-operation
  std::uint64_t ops_skipped = 0;   ///< no live coordinator at arrival
  /// Longest client-observed attempt latency (issue -> outcome). With
  /// op_deadline set this is the bounded-completion witness: it must stay
  /// within op_deadline plus scheduling slack.
  sim::Duration max_attempt_latency = 0;

  // End-of-run scrub/repair pass (runs only when nemesis.bit_rots > 0):
  // every rotted stripe is parity-scrubbed, repaired via erasure decode if
  // the corruption is still protocol-visible, and re-scrubbed — the final
  // scrub must come back clean or the campaign fails.
  std::uint64_t stripes_scrubbed = 0;
  std::uint64_t scrubs_corrupt = 0;   ///< first scrub found the rot
  std::uint64_t repairs_run = 0;      ///< repair_stripe invocations that ok'd
  std::uint64_t scrubs_clean = 0;     ///< final verdicts (must equal scrubbed)

  // Cached single-round reads (DESIGN.md §13), summed over every
  // coordinator the workload touched. hits + fallbacks counts the probes
  // actually sent; the oracle verdict above is what proves the hits safe.
  std::uint64_t cached_read_hits = 0;
  std::uint64_t cached_read_fallbacks = 0;
  std::uint64_t cached_read_misses = 0;
  std::uint64_t cache_invalidations = 0;

  NemesisStats faults;
  /// Human-readable generated fault schedule (FaultEvent::describe()), for
  /// replay diagnostics.
  std::vector<std::string> fault_schedule;
  std::uint64_t events_run = 0;
  sim::Time end_time = 0;
};

/// Runs one seeded campaign to completion. Deterministic in (config, seed).
CampaignResult run_campaign(const CampaignConfig& config, std::uint64_t seed);

/// Shell command (tools/torture_main) reproducing the campaign for `seed`
/// under `config`, printed with failure reports.
std::string replay_command(const CampaignConfig& config, std::uint64_t seed);

}  // namespace fabec::chaos
