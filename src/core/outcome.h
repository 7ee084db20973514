// Typed operation outcomes for the fault-handling layer (DESIGN.md §9).
//
// The paper's register returns ⊥ for "aborted, outcome non-deterministic";
// the seed code rendered that as std::optional / bool, which cannot
// distinguish an abort (contention — retry immediately) from a deadline
// expiry (quorum unreachable — retrying immediately is useless) or a
// routing failure (no live coordinator). Outcome<T> keeps the ⊥ semantics
// but names the reason, so clients can apply the right recovery policy.
#pragma once

#include <optional>
#include <utility>

namespace fabec::core {

/// Why an operation failed. Every error is still the paper's ⊥: the
/// operation's effect on the register is non-deterministic until a later
/// read resolves it. The taxonomy only changes what the *client* should do
/// next; it never weakens the safety argument (DESIGN.md §9).
enum class OpError {
  /// Contention abort (§3, §5.1) of a read, or of a write before any
  /// message carrying its blocks left: no effect, so fab/retry.h resends.
  kAborted,
  /// A write's abort after its blocks left: a reader may already have
  /// recovered it, and a resend under a fresh timestamp could land after a
  /// newer write (readers would see A, B, A). Never resent; a read settles.
  kAbortedAfterSend,
  /// Options::op_deadline expired before a phase reached quorum. The op's
  /// timers are cancelled and it will make no further progress. Retrying
  /// against the same partition usually just burns the budget.
  kTimeout,
  /// No live coordinator could be found to route the request. Nothing was
  /// sent; unlike the other errors the register state is untouched.
  kMisrouted,
};

inline const char* to_string(OpError e) {
  switch (e) {
    case OpError::kAborted:
      return "aborted";
    case OpError::kAbortedAfterSend:
      return "aborted after send";
    case OpError::kTimeout:
      return "timeout";
    case OpError::kMisrouted:
      return "misrouted";
  }
  return "unknown";
}

/// Empty success payload for write-shaped operations.
struct Ack {};

/// Either a value or an OpError. operator bool is explicit and there are no
/// implicit conversions from bool/optional.
template <typename T>
class Outcome {
 public:
  using value_type = T;

  Outcome(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Outcome(OpError error) : error_(error) {}       // NOLINT(runtime/explicit)

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// Meaningful only when !ok().
  OpError error() const { return error_; }

  T& value() { return *value_; }
  const T& value() const { return *value_; }
  T& operator*() { return *value_; }
  const T& operator*() const { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }

 private:
  std::optional<T> value_;
  OpError error_ = OpError::kAborted;
};

}  // namespace fabec::core
