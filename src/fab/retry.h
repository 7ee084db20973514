// The client retry discipline shared by the simulator front end
// (fab::VirtualDisk) and the deployed one (fab::VolumeClient): §5.1's "the
// client retries" an aborted (⊥) operation, with capped jittered backoff,
// under a per-operation budget. Timeouts (OpError::kTimeout) are never
// retried — the deadline already says the quorum is unreachable, and
// bounded completion is the point of the deadline (DESIGN.md §9).
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace fabec::fab {

/// Client-side retry discipline for aborted operations (§5.1's "the client
/// retries"). Applies per logical operation; attempt k waits roughly
/// initial_backoff * backoff_factor^(k-1), capped and jittered.
struct RetryPolicy {
  /// Total attempts per operation (1 = no retry, the seed behavior).
  std::uint32_t max_attempts = 1;
  sim::Duration initial_backoff = sim::kDefaultDelta;
  double backoff_factor = 2.0;
  sim::Duration max_backoff = 32 * sim::kDefaultDelta;
  /// Each wait is drawn uniformly from backoff * [1 - jitter, 1 + jitter]
  /// using the client's forked RNG — randomized (two contending clients
  /// desynchronize) yet reproducible under a fixed seed.
  double jitter = 0.5;
};

/// Final outcomes and retry traffic of one client's operations.
struct ClientStats {
  std::uint64_t ok = 0;              ///< completed (possibly after retries)
  std::uint64_t aborted = 0;         ///< final ⊥ after the retry budget
  std::uint64_t aborted_retried = 0; ///< aborts absorbed by a retry
  std::uint64_t timed_out = 0;       ///< OpError::kTimeout (never retried)
  std::uint64_t misrouted = 0;       ///< no live coordinator to route to
  std::uint64_t retries = 0;         ///< retry attempts issued
};

}  // namespace fabec::fab
