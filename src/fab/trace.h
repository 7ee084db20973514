// Block-I/O traces: a text format, a replay driver, and the concurrency
// analysis of §3.
//
// The paper justifies its abort semantics empirically: "in analyzing
// several real-world I/O traces, we have found no concurrent write-write or
// read-write accesses to the same block of data". We do not have HP's
// traces, so this module provides (a) a trace format so users can run their
// own, (b) generators via fab/workload.h, and (c) the §3 measurement
// itself: given a trace and a per-operation service interval, count
// conflicting concurrent accesses per block and per stripe under each
// layout — the quantity that predicts the abort rate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "fab/layout.h"
#include "fab/virtual_disk.h"
#include "fab/workload.h"
#include "sim/time.h"

namespace fabec::fab {

/// One trace line. Text form: `<time_ns> <R|W> <lba>`; '#' starts a
/// comment; blank lines ignored.
struct TraceRecord {
  sim::Time at = 0;
  Lba lba = 0;
  bool is_write = false;

  bool operator==(const TraceRecord&) const = default;
};

std::string trace_to_text(const std::vector<TraceRecord>& trace);
/// nullopt on any malformed line. Records need not be sorted; replay and
/// analysis sort by arrival time.
std::optional<std::vector<TraceRecord>> trace_from_text(
    const std::string& text);

/// Adapts generated workloads to trace records.
std::vector<TraceRecord> to_trace(const std::vector<WorkloadOp>& ops);

/// §3's measurement: two operations conflict if their service intervals
/// [at, at + service_time) overlap, at least one is a write, and they touch
/// the same unit (block, or stripe under the given layout).
struct ConcurrencyReport {
  std::uint64_t ops = 0;
  std::uint64_t conflicting_pairs = 0;  ///< same-unit overlapping pairs
  /// Operations involved in at least one conflict.
  std::uint64_t conflicting_ops = 0;
  double conflict_fraction() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(conflicting_ops) /
                          static_cast<double>(ops);
  }
};

/// Block-level conflicts (the paper's measurement).
ConcurrencyReport analyze_block_conflicts(std::vector<TraceRecord> trace,
                                          sim::Duration service_time);

/// Stripe-level conflicts under a layout — what actually triggers aborts
/// in the register (operations on one stripe contend even across blocks).
ConcurrencyReport analyze_stripe_conflicts(std::vector<TraceRecord> trace,
                                           sim::Duration service_time,
                                           const VolumeLayout& layout);

/// Replays a trace against a virtual disk on its cluster's simulator.
/// Outcomes are final (after the disk's RetryPolicy): `aborted` is ⊥ with
/// the retry budget exhausted, `aborted_retried` counts operations that
/// took more than one attempt, `retries` the later attempts themselves,
/// `timed_out` counts deadline expiries (never retried).
struct ReplayStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t ok = 0;
  std::uint64_t aborted = 0;  ///< operations that returned ⊥
  std::uint64_t aborted_retried = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t retries = 0;
  LatencyRecorder read_latency;
  LatencyRecorder write_latency;
};

ReplayStats replay_trace(VirtualDisk& disk,
                         const std::vector<TraceRecord>& trace);

}  // namespace fabec::fab
