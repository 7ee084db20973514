// Replica-side message handlers (Algorithm 2, plus the Modify handler of
// Algorithm 3 and §5.1's garbage-collection message).
//
// The replica is deliberately stateless apart from the persistent
// BrickStore: every handler is a pure function of (request, persistent
// state). That is what makes crash-recovery trivial to get right — a crash
// loses nothing the handlers depend on, and a recovered brick serves
// requests again without any reconstruction step (§1.3: bricks "seamlessly
// recover and rejoin").
//
// A brick's role is per-stripe: its position within the stripe's segment
// group (data position < m, parity position >= m) comes from the
// GroupLayout, so one replica object serves every stripe its brick holds,
// possibly as a data process for one stripe and a parity process for
// another.
#pragma once

#include <optional>

#include "core/group_layout.h"
#include "core/messages.h"
#include "erasure/code_family.h"
#include "quorum/quorum.h"
#include "storage/brick_store.h"

namespace fabec::core {

/// Counters for the cached-read validation handshake (DESIGN.md §13);
/// surfaced through brickd's stats line next to the journal/scrub counters.
struct ReplicaStats {
  std::uint64_t read_validations = 0;  ///< ReadReqs carrying validate_ts
  std::uint64_t read_validation_hits = 0;    ///< confirmed: val_ts matched
  std::uint64_t read_validation_misses = 0;  ///< stale ts or degraded state
};

class RegisterReplica {
 public:
  /// `brick` is this brick's global id in the pool; layout, codec, and
  /// store are owned by the enclosing brick/cluster and must outlive the
  /// replica.
  RegisterReplica(ProcessId brick, quorum::Config config,
                  const GroupLayout* layout, const erasure::CodeFamily* codec,
                  storage::BrickStore* store);

  /// Handles one request; returns the reply to send back to the
  /// coordinator, or nullopt for fire-and-forget requests (Gc).
  std::optional<Message> handle(const Message& request);

  const ReplicaStats& stats() const { return stats_; }

 private:
  /// This brick's position in the stripe's group. Requests for stripes the
  /// brick does not serve are answered with status = false (they can only
  /// arise from misrouting).
  std::optional<std::uint32_t> position(StripeId stripe) const {
    return layout_->position(stripe, brick_);
  }

  // Shape check of the mutating requests (WriteReq, ModifyReq,
  // ModifyDeltaReq, MultiModifyReq): every block exactly the store's block
  // size, every data index below m (a multi-block write's distinct and
  // non-empty), and every payload the handler needs present. A CRC-valid
  // datagram can still be malformed; it gets status=false before touching
  // the store, so replaying it from the journal after a restart is harmless
  // too.
  /// A Modify-family payload: required at the written data position and at
  /// every parity position, optional elsewhere; one block long if present.
  bool payload_fits(std::uint32_t pos, bool written,
                    const std::optional<Block>& block) const;

  Message on_read(const ReadReq& req);
  Message on_order(const OrderReq& req);
  Message on_order_read(const OrderReadReq& req);
  Message on_multi_order_read(const MultiOrderReadReq& req);
  Message on_multi_modify(const MultiModifyReq& req);
  Message on_write(const WriteReq& req);
  Message on_modify(const ModifyReq& req);
  Message on_modify_delta(const ModifyDeltaReq& req);
  void on_gc(const GcReq& req);

  ProcessId brick_;
  quorum::Config config_;
  const GroupLayout* layout_;
  const erasure::CodeFamily* codec_;
  storage::BrickStore* store_;
  ReplicaStats stats_;
};

}  // namespace fabec::core
