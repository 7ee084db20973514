// The one client retry discipline of every front end (fab::VirtualDisk, the
// chaos campaigns, fab::VolumeClient): §5.1's "the client retries" an
// aborted (⊥) operation, with capped jittered backoff, under a budget.
//
// Only an attempt that had no effect is resent: OpError::kAborted, which
// the coordinator reports for a read's abort and for a write that aborted
// before any message carrying its blocks left. A write that aborted later
// (kAbortedAfterSend) may already have been recovered by a reader; resent
// under a fresh timestamp it could land after a newer write, and readers
// would see A, B, A. Such a write is settled by reading its blocks back
// instead. Timeouts are never retried: bounded completion is the point of
// the deadline (DESIGN.md §9).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/outcome.h"
#include "sim/executor.h"
#include "sim/time.h"

namespace fabec::fab {

/// Per logical operation: attempt k waits about initial_backoff * 2^(k-1),
/// capped at max_backoff, jittered.
struct RetryPolicy {
  /// Total attempts per operation (1 = no retry, the seed behavior).
  std::uint32_t max_attempts = 1;
  sim::Duration initial_backoff = sim::kDefaultDelta;
  sim::Duration max_backoff = 32 * sim::kDefaultDelta;

  static constexpr double kBackoffFactor = 2.0;
  /// Each wait is drawn uniformly from backoff * [1 - kJitter, 1 + kJitter]
  /// from the caller's RNG: contending clients desynchronize, yet a fixed
  /// seed reproduces the schedule.
  static constexpr double kJitter = 0.5;
};

/// Whether a failed attempt may be resent: it provably had no effect.
inline bool retryable(core::OpError error) {
  return error == core::OpError::kAborted;
}

/// Final outcomes and retry traffic of one client's operations.
struct ClientStats {
  std::uint64_t ok = 0;              ///< completed (possibly after retries)
  std::uint64_t aborted = 0;         ///< final ⊥: budget spent, or after send
  std::uint64_t aborted_retried = 0; ///< operations that took > 1 attempt
  std::uint64_t timed_out = 0;       ///< OpError::kTimeout (never retried)
  std::uint64_t misrouted = 0;       ///< no live coordinator to route to
  std::uint64_t retries = 0;  ///< later attempts: resends, settling reads

  /// Tallies one logical operation's final outcome after `attempts`.
  template <typename T>
  void count(const core::Outcome<T>& outcome, std::uint32_t attempts) {
    retries += attempts - 1;
    if (attempts > 1) ++aborted_retried;
    if (outcome.ok()) {
      ++ok;
      return;
    }
    switch (outcome.error()) {
      case core::OpError::kAborted:
      case core::OpError::kAbortedAfterSend: ++aborted; break;
      case core::OpError::kTimeout: ++timed_out; break;
      case core::OpError::kMisrouted: ++misrouted; break;
    }
  }
};

/// Settles a write that aborted after send from a read of its blocks,
/// without resending it: OK if they hold the write's values (a read returns
/// only a version complete on a quorum, so the write took effect), final
/// kAbortedAfterSend if they hold others, else the read's error.
inline core::Outcome<core::Ack> settle(
    const core::Outcome<std::vector<Block>>& read,
    const std::vector<Block>& written) {
  if (!read.ok()) return read.error();
  if (*read != written) return core::OpError::kAbortedAfterSend;
  return core::Ack{};
}

/// Runs one logical operation under `policy`. `attempt(cb)` starts one
/// attempt and calls cb with its outcome — or never, if its coordinator
/// crashed, which ends the operation. `done(outcome, attempts)` gets the
/// final outcome. A write may pass `resolve`, a read of its blocks through
/// settle(): after a kAbortedAfterSend, later attempts run it instead of
/// the write. The first attempt starts inside this call; each later one is
/// scheduled on `executor`, which with `rng` must outlive the operation.
template <typename T>
void run_with_retries(sim::Executor& executor, RetryPolicy policy, Rng& rng,
                      std::function<void(std::function<void(T)>)> attempt,
                      std::function<void(T, std::uint32_t)> done,
                      std::function<void(std::function<void(T)>)> resolve = {},
                      std::uint32_t attempts = 1) {
  attempt([=, &executor, &rng](T outcome) mutable {
    const bool unsettled = resolve && !outcome.ok() &&
                           outcome.error() == core::OpError::kAbortedAfterSend;
    if (outcome.ok() || !(unsettled || retryable(outcome.error())) ||
        attempts >= policy.max_attempts) {
      done(std::move(outcome), attempts);
      return;
    }
    if (unsettled) attempt = std::exchange(resolve, nullptr);
    // `policy` is this operation's copy; initial_backoff is the running one.
    const auto b = static_cast<double>(policy.initial_backoff);
    const auto lo = static_cast<sim::Duration>((1 - RetryPolicy::kJitter) * b);
    const auto span = static_cast<std::uint64_t>(2 * RetryPolicy::kJitter * b);
    const sim::Duration wait = std::max<sim::Duration>(
        lo + static_cast<sim::Duration>(rng.next_below(span + 1)), 1);
    policy.initial_backoff = std::min(
        policy.max_backoff,
        std::max<sim::Duration>(
            static_cast<sim::Duration>(b * RetryPolicy::kBackoffFactor), 1));
    executor.schedule_event(wait, [=, &executor, &rng] {
      run_with_retries<T>(executor, policy, rng, attempt, done, resolve,
                          attempts + 1);
    });
  });
}

}  // namespace fabec::fab
