#include "core/replica.h"

#include <algorithm>

#include "common/check.h"

namespace fabec::core {

RegisterReplica::RegisterReplica(ProcessId brick, quorum::Config config,
                                 const GroupLayout* layout,
                                 const erasure::CodeFamily* codec,
                                 storage::BrickStore* store)
    : brick_(brick),
      config_(config),
      layout_(layout),
      codec_(codec),
      store_(store) {
  FABEC_CHECK(layout != nullptr && codec != nullptr && store != nullptr);
  FABEC_CHECK(brick < layout->total_bricks());
  FABEC_CHECK(layout->group_size() == config.n);
}

std::optional<Message> RegisterReplica::handle(const Message& request) {
  if (const auto* read = std::get_if<ReadReq>(&request)) return on_read(*read);
  if (const auto* order = std::get_if<OrderReq>(&request))
    return on_order(*order);
  if (const auto* oread = std::get_if<OrderReadReq>(&request))
    return on_order_read(*oread);
  if (const auto* moread = std::get_if<MultiOrderReadReq>(&request))
    return on_multi_order_read(*moread);
  if (const auto* mmodify = std::get_if<MultiModifyReq>(&request))
    return on_multi_modify(*mmodify);
  if (const auto* write = std::get_if<WriteReq>(&request))
    return on_write(*write);
  if (const auto* modify = std::get_if<ModifyReq>(&request))
    return on_modify(*modify);
  if (const auto* delta = std::get_if<ModifyDeltaReq>(&request))
    return on_modify_delta(*delta);
  if (const auto* gc = std::get_if<GcReq>(&request)) {
    on_gc(*gc);
    return std::nullopt;
  }
  FABEC_CHECK_MSG(false, "replica received a reply message");
  return std::nullopt;
}

// Algorithm 2, lines 38-44; DESIGN.md §13 for the validate_ts handshake.
Message RegisterReplica::on_read(const ReadReq& req) {
  ReadRep rep;
  rep.op = req.op;
  const auto pos = position(req.stripe);
  if (!pos.has_value()) return rep;  // misrouted: status stays false
  auto& replica = store_->replica(req.stripe);
  rep.val_ts = replica.max_ts();
  // status false means a write has ordered itself (ord-ts) but its value has
  // not reached this replica yet — a write in progress or a partial write.
  rep.status = rep.val_ts >= replica.ord_ts();
  if (req.validate_ts.has_value()) {
    // Cached-read probe: confirm only if the timestamps are sound AND the
    // newest version here is exactly the coordinator's cached one. A newer
    // version, an ordered-but-unwritten op (status=false), or a stale cache
    // all answer validated=false — the coordinator must fall back to the
    // quorum path and invalidate its entry.
    ++stats_.read_validations;
    rep.validated = rep.status && rep.val_ts == *req.validate_ts;
    if (rep.validated)
      ++stats_.read_validation_hits;
    else
      ++stats_.read_validation_misses;
  }
  const bool targeted = std::find(req.targets.begin(), req.targets.end(),
                                  *pos) != req.targets.end();
  // A block that fails its CRC is served to no one: the reply keeps
  // status=true (the timestamps are sound) but omits the block, which the
  // coordinator treats as an erasure and reads around. A failed validation
  // also omits the block — the probe is doomed and the payload wasted.
  if (rep.status && targeted && (!req.validate_ts.has_value() || rep.validated))
    rep.block = replica.max_block_checked(store_->io());
  return rep;
}

// Algorithm 2, lines 45-48.
Message RegisterReplica::on_order(const OrderReq& req) {
  OrderRep rep;
  rep.op = req.op;
  if (!position(req.stripe).has_value()) return rep;
  auto& replica = store_->replica(req.stripe);
  rep.status = req.ts > replica.max_ts() && req.ts >= replica.ord_ts();
  if (rep.status) replica.store_ord_ts(req.ts, store_->io());
  return rep;
}

// Algorithm 2, lines 49-56.
Message RegisterReplica::on_order_read(const OrderReadReq& req) {
  OrderReadRep rep;
  rep.op = req.op;
  rep.lts = kLowTS;
  const auto pos = position(req.stripe);
  if (!pos.has_value()) return rep;
  auto& replica = store_->replica(req.stripe);
  rep.status = req.ts > replica.max_ts() && req.ts >= replica.ord_ts();
  if (rep.status) {
    replica.store_ord_ts(req.ts, store_->io());
    if (req.j == *pos || req.j == kAllBlocks) {
      if (auto version = replica.max_below(req.bound, store_->io())) {
        rep.lts = version->ts;
        rep.block = std::move(version->block);
      } else if (req.j == kAllBlocks) {
        // A recovery round: name the version whose block rotted, without
        // the block. Replying LowTS would claim this replica missed the
        // version, and a quorum counting that claim could descend past a
        // complete write.
        if (auto rotted = replica.rotted_below(req.bound)) rep.lts = *rotted;
      }
      // Otherwise — nothing below the bound (post-GC), or a rotted block
      // in a targeted read — reply (LowTS, ⊥), the line 51 defaults.
    }
  }
  return rep;
}

// Footnote-2 extension: like on_order_read with bound = HighTS, but serving
// every block listed in js so a multi-block write needs one round.
Message RegisterReplica::on_multi_order_read(const MultiOrderReadReq& req) {
  OrderReadRep rep;
  rep.op = req.op;
  rep.lts = kLowTS;
  const auto pos = position(req.stripe);
  if (!pos.has_value()) return rep;
  auto& replica = store_->replica(req.stripe);
  rep.status = req.ts > replica.max_ts() && req.ts >= replica.ord_ts();
  if (rep.status) {
    replica.store_ord_ts(req.ts, store_->io());
    const bool targeted =
        std::find(req.js.begin(), req.js.end(), *pos) != req.js.end();
    if (targeted) {
      if (auto version = replica.max_below(kHighTS, store_->io())) {
        rep.lts = version->ts;
        rep.block = std::move(version->block);
      }
    } else {
      // Non-targeted processes still report their version so the
      // coordinator can check all old blocks share one version.
      rep.lts = replica.max_ts();
    }
  }
  return rep;
}

// Footnote-2 extension of the Modify handler: the coordinator pre-combined
// the parity delta, so a parity process only XORs it into its current block
// (the generator coefficients were applied sender-side).
Message RegisterReplica::on_multi_modify(const MultiModifyReq& req) {
  ModifyRep rep;
  rep.op = req.op;
  const auto pos = position(req.stripe);
  if (!pos.has_value()) return rep;
  bool distinct_data = !req.js.empty();
  for (std::size_t i = 0; i < req.js.size(); ++i)
    distinct_data = distinct_data && req.js[i] < config_.m &&
                    std::count(req.js.begin(), req.js.end(), req.js[i]) == 1;
  const bool updated =
      std::find(req.js.begin(), req.js.end(), *pos) != req.js.end();
  if (!distinct_data || !payload_fits(*pos, updated, req.block)) return rep;
  auto& replica = store_->replica(req.stripe);
  rep.status = req.ts_j == replica.max_ts() && req.ts >= replica.ord_ts();
  if (!rep.status) return rep;

  std::optional<Block> to_store;
  if (updated) {
    to_store = req.block;
  } else if (*pos >= config_.m) {
    // XORing a delta into a rotted parity block would launder the
    // corruption into a fresh (correctly-checksummed) entry — abort the op
    // instead; scrub + repair heals this replica and the retry succeeds.
    auto parity = replica.max_block_checked(store_->io());
    if (!parity.has_value()) {
      rep.status = false;
      return rep;
    }
    xor_into(*parity, *req.block);
    to_store = std::move(parity);
  }
  replica.append(req.ts, std::move(to_store), store_->io());
  return rep;
}

// Algorithm 2, lines 57-60, plus the scrub-heal extension (DESIGN.md §14):
// a write at EXACTLY max-ts is accepted when the newest entry holds a
// CRC-failed block at that timestamp. A timestamp names one unique code
// word, so the incoming bytes are the bytes this replica already accepted
// once and then lost to rot — replacing garbage in place re-executes the
// original write, not a new one, and no reader can observe a change of
// committed state (the rotted entry was already served as an erasure).
Message RegisterReplica::on_write(const WriteReq& req) {
  WriteRep rep;
  rep.op = req.op;
  if (!position(req.stripe).has_value() ||
      req.block.size() != store_->block_size())
    return rep;
  auto& replica = store_->replica(req.stripe);
  const bool heal =
      replica.newest_is_corrupt_at(req.ts) && req.ts >= replica.ord_ts();
  rep.status =
      (req.ts > replica.max_ts() && req.ts >= replica.ord_ts()) || heal;
  if (heal)
    replica.heal_newest(req.ts, req.block, store_->io());
  else if (rep.status)
    replica.append(req.ts, req.block, store_->io());
  return rep;
}

// Algorithm 3, lines 88-98.
Message RegisterReplica::on_modify(const ModifyReq& req) {
  ModifyRep rep;
  rep.op = req.op;
  const auto pos = position(req.stripe);
  if (!pos.has_value() || req.j >= config_.m ||
      req.old_block.size() != store_->block_size() ||
      req.new_block.size() != store_->block_size())
    return rep;
  auto& replica = store_->replica(req.stripe);
  // ts_j must still be this replica's newest timestamp: a mismatch means a
  // competing operation slipped in after the Order&Read phase.
  rep.status = req.ts_j == replica.max_ts() && req.ts >= replica.ord_ts();
  if (!rep.status) return rep;

  std::optional<Block> to_store;
  if (*pos == req.j) {
    to_store = req.new_block;  // the updated data block itself
  } else if (*pos >= config_.m) {
    // Parity process: incremental update from (old data, new data, own
    // current parity) — the modify_{j,i} primitive. A rotted current
    // parity must not seed the update (it would propagate the corruption
    // under a fresh CRC), so abort and let scrub + repair heal first.
    auto parity = replica.max_block_checked(store_->io());
    if (!parity.has_value()) {
      rep.status = false;
      return rep;
    }
    to_store =
        codec_->modify(req.j, *pos, req.old_block, req.new_block, *parity);
  }
  // Other data processes store a ⊥ marker: their block is unchanged but the
  // stripe's timestamp must advance uniformly (line 96).
  replica.append(req.ts, std::move(to_store), store_->io());
  return rep;
}

// §5.2's bandwidth-optimized Modify: same status check and log effects as
// on_modify, but the payload is per-destination — the new block for p_j, a
// raw delta (old XOR new) for parity processes, nothing for the rest. The
// parity process applies its own generator coefficient to the delta, which
// is why one coded block suffices regardless of which parity receives it.
Message RegisterReplica::on_modify_delta(const ModifyDeltaReq& req) {
  ModifyRep rep;
  rep.op = req.op;
  const auto pos = position(req.stripe);
  if (!pos.has_value() || req.j >= config_.m ||
      !payload_fits(*pos, *pos == req.j, req.block))
    return rep;
  auto& replica = store_->replica(req.stripe);
  rep.status = req.ts_j == replica.max_ts() && req.ts >= replica.ord_ts();
  if (!rep.status) return rep;

  std::optional<Block> to_store;
  if (*pos == req.j) {
    to_store = req.block;
  } else if (*pos >= config_.m) {
    auto parity = replica.max_block_checked(store_->io());
    if (!parity.has_value()) {
      rep.status = false;  // see on_modify: never update through rot
      return rep;
    }
    codec_->apply_modify_delta(req.j, *pos, *req.block, *parity);
    to_store = std::move(parity);
  }
  replica.append(req.ts, std::move(to_store), store_->io());
  return rep;
}

bool RegisterReplica::payload_fits(std::uint32_t pos, bool written,
                                   const std::optional<Block>& block) const {
  if (block.has_value()) return block->size() == store_->block_size();
  return !written && pos < config_.m;
}

// §5.1: trim log entries made obsolete by a complete write.
void RegisterReplica::on_gc(const GcReq& req) {
  if (!store_->has_replica(req.stripe)) return;
  store_->replica(req.stripe).gc_below(req.complete_ts);
}

}  // namespace fabec::core
