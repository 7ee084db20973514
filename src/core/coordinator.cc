#include "core/coordinator.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace fabec::core {
namespace {

/// Op id carried by any protocol message (0 for Gc, which has no reply).
OpId op_of(const Message& msg) {
  return std::visit(
      [](const auto& m) -> OpId {
        if constexpr (requires { m.op; })
          return m.op;
        else
          return 0;
      },
      msg);
}

template <typename Rep>
const Rep* as(const std::optional<Message>& msg) {
  return msg.has_value() ? std::get_if<Rep>(&*msg) : nullptr;
}

/// "status in all replies is true" over the replies actually received.
/// on_reply's expected-kind filter guarantees every stored reply is of the
/// phase's kind; skipping (rather than aborting the process on) a mismatch
/// keeps an op-id collision harmless even if a future path stores one.
template <typename Rep>
bool all_status_true(const std::vector<std::optional<Message>>& replies) {
  for (const auto& r : replies) {
    if (!r.has_value()) continue;
    const Rep* rep = std::get_if<Rep>(&*r);
    if (rep == nullptr) continue;
    if (!rep->status) return false;
  }
  return true;
}

}  // namespace

Coordinator::Coordinator(ProcessId self, quorum::Config config,
                         const GroupLayout* layout,
                         const erasure::CodeFamily* codec,
                         sim::Executor* executor, TimestampSource* ts_source,
                         SendFn send, Options options)
    : self_(self),
      config_(config),
      layout_(layout),
      codec_(codec),
      sim_(executor),
      ts_source_(ts_source),
      send_(std::move(send)),
      options_(options),
      rng_(executor->random().fork()) {
  FABEC_CHECK(layout != nullptr && codec != nullptr && executor != nullptr &&
              ts_source != nullptr);
  FABEC_CHECK(codec->m() == config.m && codec->n() == config.n);
  FABEC_CHECK(layout->group_size() == config.n);
  missed_rounds_.assign(layout_->total_bricks(), 0);
  // Incarnation nonce: every coordinator incarnation starts its op-id
  // sequence at an independent random point, so a reply addressed to a
  // pre-crash incarnation practically never matches a post-recovery phase.
  // Ids stay monotonic within the incarnation; 0 is reserved (op-less Gc).
  next_op_ = rng_.next_u64() | 1;
}

// ---------------------------------------------------------------------
// quorum() machinery
// ---------------------------------------------------------------------

OpId Coordinator::start_rpc_impl(
    std::vector<ProcessId> dests,
    std::function<Message(std::uint32_t, OpId)> make_request,
    std::function<void(Replies&, bool)> on_complete,
    std::size_t expected_kind, std::vector<std::uint32_t> wait_for,
    std::vector<std::uint32_t> contacts,
    std::function<bool(const Replies&)> hold) {
  FABEC_CHECK(dests.size() == config_.n);
  const OpId op = next_op_++;
  Rpc rpc;
  rpc.dests = std::move(dests);
  rpc.make_request = std::move(make_request);
  rpc.replies.resize(config_.n);
  rpc.next_period = options_.retransmit_period;
  rpc.expected_kind = expected_kind;
  rpc.wait_for = std::move(wait_for);
  rpc.contacts = std::move(contacts);
  rpc.hold = std::move(hold);
  rpc.on_complete = std::move(on_complete);
  pending_.emplace(op, std::move(rpc));
  Rpc& placed = pending_.find(op)->second;
  if (!placed.contacts.empty()) {
    // Sub-quorum probe: it can never satisfy the quorum counter, so a
    // fallback timer finalizes it with whatever replies arrived — the
    // continuation sees the missing/unconfirmed contacts and falls back to
    // the quorum path. Probes therefore never time out; op_deadline only
    // caps the fallback delay so the quorum path keeps its full budget.
    sim::Duration delay = options_.read_cache_fallback > 0
                              ? options_.read_cache_fallback
                              : options_.retransmit_period;
    if (options_.op_deadline > 0)
      delay = std::min(delay, options_.op_deadline);
    placed.grace_armed = true;
    placed.grace_timer =
        sim_->schedule_event(delay, [this, op] { begin_finalize(op); });
  } else if (options_.op_deadline > 0) {
    placed.deadline_armed = true;
    placed.deadline_timer = sim_->schedule_event(
        options_.op_deadline, [this, op] { timeout_rpc(op); });
  }
  transmit_round(op, /*retransmit=*/false);
  arm_retransmit(op);
  // After the sends: the phase's first round is on the wire, so a probe
  // crashing us here leaves replicas holding requests whose coordinator is
  // gone — the paper's partial-write scenario. transmit_round/arm_retransmit
  // tolerate the synchronous-crash case (pending_ already cleared).
  if (phase_probe_) phase_probe_(op);
  return op;
}

void Coordinator::transmit_round(OpId op, bool retransmit) {
  auto it = pending_.find(op);
  if (it == pending_.end()) return;
  const std::vector<std::uint32_t>& contacts = it->second.contacts;
  for (std::uint32_t pos = 0; pos < config_.n; ++pos) {
    if (!contacts.empty() &&
        std::find(contacts.begin(), contacts.end(), pos) == contacts.end())
      continue;  // sub-quorum probe: only the contact set is addressed
    if (it->second.replies[pos].has_value()) continue;
    const ProcessId dest = it->second.dests[pos];
    if (retransmit && options_.suspect_after > 0 &&
        dest < missed_rounds_.size()) {
      // A brick silent through suspect_after consecutive rounds is probably
      // down or partitioned away; hammering it wastes bandwidth and, under
      // backoff, delays nothing. Keep probing at a slower cadence so a
      // recovered brick is re-admitted within one probe period.
      const std::uint32_t missed = ++missed_rounds_[dest];
      if (missed >= options_.suspect_after) {
        const std::uint32_t probe_every =
            std::max<std::uint32_t>(1, options_.suspect_probe_period);
        if ((missed - options_.suspect_after) % probe_every != 0) {
          ++stats_.sends_suppressed;
          continue;
        }
        ++stats_.suspect_probes;
      }
    }
    send_(dest, it->second.make_request(pos, it->first));
  }
}

sim::Duration Coordinator::retransmit_cap() const {
  return options_.retransmit_max_period > 0 ? options_.retransmit_max_period
                                            : 4 * options_.retransmit_period;
}

void Coordinator::arm_retransmit(OpId op) {
  auto it = pending_.find(op);
  if (it == pending_.end()) return;
  sim::Duration delay = it->second.next_period;
  if (options_.retransmit_jitter > 0) {
    // Deterministic jitter from the forked RNG: delay *= 1 + j·u, u in
    // [-1, 1). Same seed → same schedule; different coordinators → streams
    // that cannot stay phase-locked.
    const double u = 2.0 * rng_.next_double() - 1.0;
    delay += static_cast<sim::Duration>(
        u * options_.retransmit_jitter * static_cast<double>(delay));
    if (delay < 1) delay = 1;
  }
  it->second.retransmit_timer = sim_->schedule_event(delay, [this, op] {
    auto it2 = pending_.find(op);
    if (it2 == pending_.end() || it2->second.finalizing) return;
    ++stats_.retransmit_rounds;
    transmit_round(op, /*retransmit=*/true);
    const double factor = std::max(1.0, options_.retransmit_backoff);
    const sim::Duration next = static_cast<sim::Duration>(
        static_cast<double>(it2->second.next_period) * factor);
    it2->second.next_period =
        std::min(retransmit_cap(), std::max<sim::Duration>(next, 1));
    arm_retransmit(op);
  });
}

void Coordinator::on_reply(ProcessId from, const Message& reply) {
  auto it = pending_.find(op_of(reply));
  if (it == pending_.end()) return;  // late or pre-crash reply: ignore
  Rpc& rpc = it->second;
  if (reply.index() != rpc.expected_kind) {
    // An op-id collision (a reply meant for a previous incarnation of this
    // coordinator, delayed in flight) answering a different message kind.
    // Dropping it is always safe: at worst the real reply arrives later or
    // the round retransmits.
    ++stats_.mismatched_replies;
    return;
  }
  // Any reply is proof of life: clear the sender's suspicion count.
  if (from < missed_rounds_.size()) missed_rounds_[from] = 0;
  // Map the sender's global id back to its group position.
  std::uint32_t pos = config_.n;
  for (std::uint32_t candidate = 0; candidate < config_.n; ++candidate)
    if (rpc.dests[candidate] == from) {
      pos = candidate;
      break;
    }
  if (pos == config_.n) return;  // not a member of this phase's group
  if (rpc.replies[pos].has_value()) return;  // duplicate (retransmission)
  rpc.replies[pos] = reply;
  ++rpc.distinct;
  if (rpc.finalizing) return;
  if (!rpc.contacts.empty()) {
    // Sub-quorum probe: complete as soon as the whole contact set answered.
    if (rpc.distinct >= rpc.contacts.size()) begin_finalize(it->first);
    return;
  }
  if (rpc.distinct < config_.quorum()) return;
  if (rpc.hold && rpc.distinct < config_.n && rpc.hold(rpc.replies)) return;
  const OpId op = it->first;
  // Quorum met. If the phase named specific positions it wants answers
  // from, optionally hold the door open for them a little longer.
  const bool targets_satisfied = std::all_of(
      rpc.wait_for.begin(), rpc.wait_for.end(),
      [&rpc](std::uint32_t p) { return rpc.replies[p].has_value(); });
  if (targets_satisfied || options_.target_grace == 0) {
    begin_finalize(op);
    return;
  }
  if (!rpc.grace_armed) {
    rpc.grace_armed = true;
    rpc.grace_timer = sim_->schedule_event(
        options_.target_grace, [this, op] { begin_finalize(op); });
  }
}

void Coordinator::begin_finalize(OpId op) {
  auto it = pending_.find(op);
  if (it == pending_.end() || it->second.finalizing) return;
  // Defer completion by a zero-duration event: deliveries already
  // scheduled for this same virtual instant (co-timed stragglers) run
  // first and are included in the reply set, so a failure-free fast read
  // sees every reply of its round.
  it->second.finalizing = true;
  if (it->second.grace_armed) sim_->cancel_event(it->second.grace_timer);
  sim_->schedule_event(0, [this, op] { finalize_rpc(op); });
}

void Coordinator::finalize_rpc(OpId op) {
  auto it = pending_.find(op);
  if (it == pending_.end()) return;  // dropped by a crash in the meantime
  sim_->cancel_event(it->second.retransmit_timer);
  if (it->second.deadline_armed) sim_->cancel_event(it->second.deadline_timer);
  Rpc rpc = std::move(it->second);
  pending_.erase(it);
  rpc.on_complete(rpc.replies, /*timed_out=*/false);
}

void Coordinator::timeout_rpc(OpId op) {
  auto it = pending_.find(op);
  // A phase that reached quorum at the same instant its deadline expired is
  // already finalizing; the operation completed in time, so let it.
  if (it == pending_.end() || it->second.finalizing) return;
  ++stats_.op_timeouts;
  sim_->cancel_event(it->second.retransmit_timer);
  if (it->second.grace_armed) sim_->cancel_event(it->second.grace_timer);
  Rpc rpc = std::move(it->second);
  pending_.erase(it);
  rpc.on_complete(rpc.replies, /*timed_out=*/true);
}

void Coordinator::drop_all_pending() {
  for (auto& [op, rpc] : pending_) {
    sim_->cancel_event(rpc.retransmit_timer);
    if (rpc.grace_armed) sim_->cancel_event(rpc.grace_timer);
    if (rpc.deadline_armed) sim_->cancel_event(rpc.deadline_timer);
  }
  pending_.clear();
  // A restarted coordinator trusts nothing it cached before the crash.
  cache_clear();
}

// ---------------------------------------------------------------------
// Single-round cached reads (DESIGN.md §13)
// ---------------------------------------------------------------------

void Coordinator::cache_put(StripeId stripe, const Timestamp& ts) {
  if (!options_.read_cache) return;
  auto it = cache_map_.find(stripe);
  if (it != cache_map_.end()) {
    it->second->second = ts;
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;
  }
  cache_lru_.emplace_front(stripe, ts);
  cache_map_.emplace(stripe, cache_lru_.begin());
  const std::size_t cap = std::max<std::size_t>(1, options_.read_cache_capacity);
  while (cache_map_.size() > cap) {
    ++stats_.cache_evictions;
    cache_map_.erase(cache_lru_.back().first);
    cache_lru_.pop_back();
  }
}

void Coordinator::cache_invalidate(StripeId stripe) {
  auto it = cache_map_.find(stripe);
  if (it == cache_map_.end()) return;
  ++stats_.cache_invalidations;
  cache_lru_.erase(it->second);
  cache_map_.erase(it);
}

void Coordinator::cache_clear() {
  stats_.cache_invalidations += cache_map_.size();
  cache_lru_.clear();
  cache_map_.clear();
}

std::optional<Timestamp> Coordinator::cache_usable_ts(
    StripeId stripe, const std::vector<BlockIndex>& required,
    std::vector<std::uint32_t>* contacts) {
  if (!options_.read_cache) return std::nullopt;
  auto it = cache_map_.find(stripe);
  if (it == cache_map_.end()) {
    ++stats_.cached_read_misses;
    return std::nullopt;
  }
  // Contact set size t = max(m, f+1): >= m so every requested data block can
  // be served from a contact, >= f+1 so any completed operation's quorum
  // (n - f members) intersects the contacts in at least one position — the
  // witness whose val_ts mismatch forces the fallback (§13's coherence
  // argument).
  const std::uint32_t f = config_.n - config_.quorum();
  const std::uint32_t t = std::max<std::uint32_t>(config_.m, f + 1);
  const std::vector<ProcessId> group = layout_->group(stripe);
  const auto suspected = [this, &group](std::uint32_t pos) {
    if (options_.suspect_after == 0) return false;
    const ProcessId dest = group[pos];
    return dest < missed_rounds_.size() &&
           missed_rounds_[dest] >= options_.suspect_after;
  };
  contacts->clear();
  for (BlockIndex j : required) {
    if (suspected(j)) {
      // A required data position is suspected: the probe would stall until
      // the fallback timer anyway, so skip straight to the quorum path.
      ++stats_.cached_read_misses;
      return std::nullopt;
    }
    if (std::find(contacts->begin(), contacts->end(), j) == contacts->end())
      contacts->push_back(j);
  }
  for (std::uint32_t pos = 0; pos < config_.n && contacts->size() < t; ++pos) {
    if (suspected(pos)) continue;
    if (std::find(contacts->begin(), contacts->end(), pos) != contacts->end())
      continue;
    contacts->push_back(pos);
  }
  if (contacts->size() < t) {
    ++stats_.cached_read_misses;
    return std::nullopt;
  }
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  return it->second->second;
}

void Coordinator::cached_probe(StripeId stripe, Timestamp ts,
                               std::vector<BlockIndex> js,
                               std::vector<std::uint32_t> contacts,
                               CachedProbeCb done) {
  auto shared_js = std::make_shared<std::vector<BlockIndex>>(std::move(js));
  auto shared_contacts =
      std::make_shared<std::vector<std::uint32_t>>(contacts);
  start_rpc_impl(
      layout_->group(stripe),
      [stripe, shared_js, ts](std::uint32_t, OpId op) -> Message {
        ReadReq req{stripe, op, *shared_js};
        req.validate_ts = ts;
        return req;
      },
      [this, stripe, shared_js, shared_contacts, done = std::move(done)](
          Replies& replies, bool timed_out) {
        // Confirm rule: every contact answered and validated the cached
        // timestamp, and every requested block arrived. Anything less —
        // silence until the fallback timer, a degraded replica
        // (status=false), a different version, an omitted block — means the
        // entry cannot be trusted and the quorum path decides.
        bool confirmed = !timed_out;
        if (confirmed) {
          for (std::uint32_t pos : *shared_contacts) {
            const ReadRep* rep = as<ReadRep>(replies[pos]);
            if (rep == nullptr || !rep->validated) {
              confirmed = false;
              break;
            }
          }
        }
        std::vector<Block> out;
        if (confirmed) {
          out.reserve(shared_js->size());
          for (BlockIndex j : *shared_js) {
            const ReadRep* rep = as<ReadRep>(replies[j]);
            if (rep == nullptr || !rep->block.has_value()) {
              confirmed = false;
              break;
            }
            out.push_back(*rep->block);
          }
        }
        if (!confirmed) {
          ++stats_.cached_read_fallbacks;
          cache_invalidate(stripe);
          done(std::nullopt);
          return;
        }
        ++stats_.cached_read_hits;
        done(StripeOutcome(std::move(out)));
      },
      message_kind_of<ReadRep>, /*wait_for=*/{}, std::move(contacts));
}

// ---------------------------------------------------------------------
// Algorithm 1 — whole-stripe operations
// ---------------------------------------------------------------------

void Coordinator::read_stripe(StripeId stripe, StripeOutcomeCb done) {
  ++stats_.stripe_reads;
  std::vector<BlockIndex> all_data(config_.m);
  std::iota(all_data.begin(), all_data.end(), 0);
  std::vector<std::uint32_t> contacts;
  if (const auto cached = cache_usable_ts(stripe, all_data, &contacts)) {
    // One round to t contacts; the blocks come back raw (the code is
    // systematic and the contacts cover all data positions), so no decode.
    cached_probe(stripe, *cached, std::move(all_data), std::move(contacts),
                 [this, stripe, done = std::move(done)](
                     std::optional<StripeOutcome> probe) mutable {
                   if (!probe.has_value()) {
                     read_stripe_quorum(stripe, std::move(done));
                     return;
                   }
                   done(std::move(*probe));
                 });
    return;
  }
  read_stripe_quorum(stripe, std::move(done));
}

void Coordinator::read_stripe_quorum(StripeId stripe, StripeOutcomeCb done) {
  fast_read_stripe(
      stripe, [this, stripe, done = std::move(done)](StripeOutcome fast) {
        if (fast.ok()) {
          ++stats_.fast_read_hits;
          done(std::move(fast));
          return;
        }
        if (fast.error() == OpError::kTimeout) {
          // The deadline bounds the whole operation: a timed-out fast
          // round must not buy a second deadline's worth of recovery.
          done(std::move(fast));
          return;
        }
        recover(stripe, [this, done](StripeOutcome slow) {
          if (!slow.ok() && slow.error() == OpError::kAborted)
            ++stats_.aborts;
          done(std::move(slow));
        });
      });
}

void Coordinator::fast_read_stripe(StripeId stripe, StripeOutcomeCb done) {
  // Line 6: pick m random processes as block targets — except that for a
  // non-MDS family a random m-subset need not decode, so the family itself
  // picks a decodable set out of the shuffled candidate order (for RS this
  // degenerates to "the first m", the paper's random choice).
  std::vector<BlockIndex> ids(config_.n);
  std::iota(ids.begin(), ids.end(), 0);
  rng_.shuffle(ids);
  auto sources = codec_->decode_sources(ids);
  FABEC_CHECK_MSG(sources.has_value(),
                  "code family cannot decode from all n positions");
  auto targets =
      std::make_shared<std::vector<ProcessId>>(sources->begin(),
                                               sources->end());
  start_rpc<ReadRep>(
      layout_->group(stripe),
      [stripe, targets](std::uint32_t, OpId op) -> Message {
        return ReadReq{stripe, op, *targets};
      },
      [this, stripe, targets, done = std::move(done)](Replies& replies,
                                                      bool timed_out) {
        if (timed_out) {
          done(OpError::kTimeout);
          return;
        }
        // Line 8: all statuses true, one common val-ts, all targets present.
        std::optional<Timestamp> val_ts;
        for (const auto& r : replies) {
          const ReadRep* rep = as<ReadRep>(r);
          if (rep == nullptr) continue;
          if (!rep->status || (val_ts.has_value() && *val_ts != rep->val_ts)) {
            done(OpError::kAborted);
            return;
          }
          val_ts = rep->val_ts;
        }
        // Borrow the reply blocks: the views stay valid through the
        // synchronous decode, so each data block is materialized exactly
        // once (inside decode_blocks) instead of once per Shard copy.
        std::vector<erasure::ShardView> shards;
        for (ProcessId t : *targets) {
          const ReadRep* rep = as<ReadRep>(replies[t]);
          if (rep == nullptr || !rep->block.has_value()) {
            done(OpError::kAborted);
            return;
          }
          shards.push_back(erasure::ShardView{t, *rep->block});
        }
        // A fast read's success proves val_ts complete on a quorum (all
        // statuses true across n - f replies): cacheable evidence.
        if (val_ts.has_value()) cache_put(stripe, *val_ts);
        done(codec_->decode_blocks(shards));
      },
      std::vector<std::uint32_t>(targets->begin(), targets->end()));
}

struct Coordinator::RecoverState {
  StripeId stripe = 0;
  Timestamp ts;
  Timestamp bound;  ///< the paper's `max`, strictly decreasing per round
  StripeOutcomeCb done;
};

void Coordinator::recover(StripeId stripe, StripeOutcomeCb done) {
  ++stats_.recoveries_started;
  // Recovery is about to rewrite the stripe's newest version; whatever the
  // cache says is stale the moment the write-back lands. (The write-back's
  // store_stripe re-populates on success.)
  cache_invalidate(stripe);
  const Timestamp ts = ts_source_->next();
  auto state = std::make_shared<RecoverState>();
  state->stripe = stripe;
  state->ts = ts;
  state->bound = kHighTS;
  state->done = [this, stripe, ts,
                 done = std::move(done)](StripeOutcome prev) {
    if (!prev.ok()) {
      done(std::move(prev));
      return;
    }
    // Lines 20-21: write the recovered value back under the new timestamp;
    // this is what rolls the partial write forward or back once and for all.
    auto value = std::make_shared<std::vector<Block>>(std::move(*prev));
    store_stripe(stripe, value, ts, [value, done](WriteOutcome stored) {
      done(stored.ok() ? StripeOutcome(*value)
                       : StripeOutcome(stored.error()));
    });
  };
  read_prev_stripe(std::move(state));
}

void Coordinator::read_prev_stripe(std::shared_ptr<RecoverState> state) {
  ++stats_.recovery_iterations;
  start_rpc<OrderReadRep>(
      layout_->group(state->stripe),
      [state](std::uint32_t, OpId op) -> Message {
        return OrderReadReq{state->stripe, op, kAllBlocks, state->bound,
                            state->ts};
      },
      [this, state](Replies& replies, bool timed_out) {
        if (timed_out) {
          state->done(OpError::kTimeout);
          return;
        }
        if (!all_status_true<OrderReadRep>(replies)) {
          state->done(OpError::kAborted);  // line 29: conflicting operation
          return;
        }
        const RecoveryRound round = judge_recovery_round(replies);
        if (round.decodable) {
          state->done(codec_->decode_blocks(round.shards));
          return;
        }
        if (round.unresolved) {
          // Every member replied and the version still cannot be read:
          // report ⊥ rather than descend to an older value.
          state->done(OpError::kAborted);
          return;
        }
        const Timestamp max = round.max;
        if (max <= kLowTS) {
          // Fewer than m blocks even at LowTS: only possible if garbage
          // collection outpaced us, in which case a complete newer version
          // exists and a retry will find it. Abort rather than loop.
          state->done(OpError::kAborted);
          return;
        }
        state->bound = max;  // descend strictly: max-below is exclusive
        read_prev_stripe(state);
      },
      /*wait_for=*/{},
      [this](const Replies& replies) {
        return all_status_true<OrderReadRep>(replies) &&
               judge_recovery_round(replies).unresolved;
      });
}

Coordinator::RecoveryRound Coordinator::judge_recovery_round(
    const Replies& replies) const {
  RecoveryRound round;
  round.max = kLowTS;
  for (const auto& r : replies)
    if (const OrderReadRep* rep = as<OrderReadRep>(r))
      round.max = std::max(round.max, rep->lts);
  std::vector<BlockIndex> positions;
  std::uint32_t unvouched = 0, behind = 0;
  for (ProcessId p = 0; p < config_.n; ++p) {
    const OrderReadRep* rep = as<OrderReadRep>(replies[p]);
    if (rep == nullptr) continue;
    if (rep->lts < round.max) {
      ++behind;
    } else if (!rep->block.has_value()) {
      ++unvouched;
    } else {
      round.shards.push_back(erasure::ShardView{p, *rep->block});
      positions.push_back(p);
    }
  }
  // "At least m shards" is the MDS criterion; a pattern-dependent family
  // (LRC) must ask decodable() — some supersets of m blocks still cannot
  // reconstruct, and some can only with > m of them.
  round.decodable = codec_->decodable(positions);
  // A complete write reached n - f members, so more than f replies behind
  // max prove max incomplete and safe to descend past.
  round.unresolved = !round.decodable && unvouched > 0 && behind <= config_.f();
  return round;
}

void Coordinator::write_stripe(StripeId stripe, std::vector<Block> data,
                               WriteOutcomeCb done) {
  ++stats_.stripe_writes;
  FABEC_CHECK_MSG(data.size() == config_.m,
                  "write_stripe takes exactly m data blocks");
  const Timestamp ts = ts_source_->next();
  auto shared_data = std::make_shared<std::vector<Block>>(std::move(data));
  // Phase 1 (lines 13-15): place the operation in the total order.
  start_rpc<OrderRep>(
      layout_->group(stripe),
      [stripe, ts](std::uint32_t, OpId op) -> Message {
        return OrderReq{stripe, op, ts};
      },
      [this, stripe, shared_data, ts, done = std::move(done)](
          Replies& replies, bool timed_out) {
        if (timed_out) {
          done(OpError::kTimeout);
          return;
        }
        if (!all_status_true<OrderRep>(replies)) {
          ++stats_.aborts;
          // The order phase reached some replicas: their ord-ts advanced, so
          // a cached probe would see status=false anyway. Drop the entry.
          cache_invalidate(stripe);
          done(OpError::kAborted);
          return;
        }
        // From here on the data is on the wire: an abort may have taken
        // effect on some replicas, so it must not be retried.
        store_stripe(stripe, shared_data, ts,
                     [this, done](WriteOutcome stored) {
                       if (!stored.ok() &&
                           stored.error() == OpError::kAborted) {
                         ++stats_.aborts;
                         stored = OpError::kAbortedAfterSend;
                       }
                       done(std::move(stored));
                     });
      });
}

void Coordinator::store_stripe(StripeId stripe,
                               std::shared_ptr<const std::vector<Block>> data,
                               Timestamp ts, WriteOutcomeCb done) {
  // Lines 34-37. Each destination gets only its own block of the code word,
  // so the phase moves nB of payload (Table 1). Only the k parity blocks
  // are materialized here; the m data blocks ship straight out of `data`
  // (the encode is systematic), so a stripe write allocates k blocks, not n.
  const std::size_t block_size = (*data)[0].size();
  auto parity = std::make_shared<std::vector<Block>>(config_.n - config_.m,
                                                     Block(block_size));
  const std::vector<erasure::ConstByteSpan> data_views(data->begin(),
                                                       data->end());
  const std::vector<erasure::MutByteSpan> parity_views(parity->begin(),
                                                       parity->end());
  codec_->encode_parity(data_views, parity_views);
  start_rpc<WriteRep>(
      layout_->group(stripe),
      [stripe, ts, data, parity, m = config_.m](std::uint32_t pos,
                                                OpId op) -> Message {
        return WriteReq{stripe, op, ts,
                        pos < m ? (*data)[pos] : (*parity)[pos - m]};
      },
      [this, stripe, ts, done = std::move(done)](Replies& replies,
                                                 bool timed_out) {
        if (timed_out) {
          // Unknown outcome: some replicas may hold the new version. The
          // entry (if any) is certainly stale — drop it.
          cache_invalidate(stripe);
          done(OpError::kTimeout);
          return;
        }
        if (!all_status_true<WriteRep>(replies)) {
          cache_invalidate(stripe);
          done(OpError::kAborted);
          return;
        }
        // The write is complete on a full quorum: old versions may go
        // (§5.1), and ts is exactly the quorum-proven evidence the read
        // cache wants. This one hook covers client stripe writes, recovery
        // write-backs, and the slow block-write paths alike.
        cache_put(stripe, ts);
        maybe_send_gc(stripe, ts);
        done(Ack{});
      });
}

// ---------------------------------------------------------------------
// Algorithm 3 and footnote 2 — block reads
// ---------------------------------------------------------------------

void Coordinator::read_block(StripeId stripe, BlockIndex j,
                             BlockOutcomeCb done) {
  ++stats_.block_reads;
  read_data_blocks(stripe, {j}, [done = std::move(done)](StripeOutcome r) {
    if (r.ok())
      done(std::move((*r)[0]));
    else
      done(r.error());
  });
}

void Coordinator::read_blocks(StripeId stripe, std::vector<BlockIndex> js,
                              StripeOutcomeCb done) {
  // Counted by how many blocks the read covers, not by entry point.
  ++(js.size() == 1 ? stats_.block_reads : stats_.multi_block_reads);
  read_data_blocks(stripe, std::move(js), std::move(done));
}

void Coordinator::read_data_blocks(StripeId stripe, std::vector<BlockIndex> js,
                                   StripeOutcomeCb done) {
  FABEC_CHECK(!js.empty());
  for (BlockIndex j : js) FABEC_CHECK_MSG(j < config_.m, "data indices only");
  auto shared_js =
      std::make_shared<const std::vector<BlockIndex>>(std::move(js));
  std::vector<std::uint32_t> contacts;
  if (const auto cached = cache_usable_ts(stripe, *shared_js, &contacts)) {
    cached_probe(stripe, *cached, *shared_js, std::move(contacts),
                 [this, stripe, shared_js, done = std::move(done)](
                     std::optional<StripeOutcome> probe) mutable {
                   if (!probe.has_value()) {
                     read_blocks_quorum(stripe, shared_js, std::move(done));
                     return;
                   }
                   done(std::move(*probe));
                 });
    return;
  }
  read_blocks_quorum(stripe, shared_js, std::move(done));
}

void Coordinator::read_blocks_quorum(StripeId stripe, BlockList js,
                                     StripeOutcomeCb done) {
  start_rpc<ReadRep>(
      layout_->group(stripe),
      [stripe, js](std::uint32_t, OpId op) -> Message {
        return ReadReq{stripe, op, {js->begin(), js->end()}};
      },
      [this, stripe, js, done = std::move(done)](Replies& replies,
                                                 bool timed_out) {
        if (timed_out) {
          done(OpError::kTimeout);
          return;
        }
        // Lines 63-64: single-round success if no partial write is visible
        // anywhere and every p_j returned its block.
        std::optional<Timestamp> val_ts;
        for (const auto& r : replies) {
          const ReadRep* rep = as<ReadRep>(r);
          if (rep == nullptr) continue;
          if (!rep->status || (val_ts.has_value() && *val_ts != rep->val_ts)) {
            // Lines 65-69: reconstruct via recovery and project js.
            recover_read_blocks(stripe, js, done);
            return;
          }
          val_ts = rep->val_ts;
        }
        std::vector<Block> out(js->size());
        std::vector<std::size_t> missing;
        for (std::size_t i = 0; i < js->size(); ++i) {
          const ReadRep* rep = as<ReadRep>(replies[(*js)[i]]);
          if (rep != nullptr && rep->block.has_value())
            out[i] = *rep->block;
          else
            missing.push_back(i);
        }
        if (missing.empty()) {
          ++stats_.fast_read_hits;
          if (val_ts.has_value()) cache_put(stripe, *val_ts);
          done(std::move(out));
          return;
        }
        if (missing.size() > 1 || !val_ts.has_value()) {
          recover_read_blocks(stripe, js, done);
          return;
        }
        // Every reply is clean at ONE common complete version; only one
        // requested block is missing (silent brick or a CRC-failed block
        // served as an erasure). Reconstruct it at exactly that version from
        // the repair plan's sources — for LRC, the lost block's local group
        // — instead of paying a full recovery write-back.
        const BlockIndex lost = (*js)[missing[0]];
        std::vector<BlockIndex> alive;
        for (std::uint32_t pos = 0; pos < config_.n; ++pos)
          if (pos != lost && as<ReadRep>(replies[pos]) != nullptr)
            alive.push_back(pos);
        degraded_read_blocks(stripe, js, std::move(out), missing[0], *val_ts,
                             std::move(alive), done);
      },
      std::vector<std::uint32_t>(js->begin(), js->end()));
}

void Coordinator::recover_read_blocks(StripeId stripe, BlockList js,
                                      StripeOutcomeCb done) {
  recover(stripe, [this, js, done = std::move(done)](StripeOutcome value) {
    if (!value.ok()) {
      if (value.error() == OpError::kAborted) ++stats_.aborts;
      done(value.error());
      return;
    }
    std::vector<Block> out;
    out.reserve(js->size());
    for (BlockIndex j : *js) out.push_back((*value)[j]);
    done(std::move(out));
  });
}

void Coordinator::degraded_read_blocks(StripeId stripe, BlockList js,
                                       std::vector<Block> out,
                                       std::size_t missing, Timestamp val_ts,
                                       std::vector<BlockIndex> alive,
                                       StripeOutcomeCb done) {
  auto plan = std::make_shared<const std::optional<erasure::RepairPlan>>(
      codec_->repair_plan((*js)[missing], alive));
  if (!plan->has_value()) {
    recover_read_blocks(stripe, js, std::move(done));
    return;
  }
  // One validated round to the plan's sources only (the sub-quorum contact
  // mechanism): each source ships its block iff val_ts is still exactly its
  // newest sound version. All sources confirming pins every fetched block
  // to the same code word, so the reconstruction is the value the fast read
  // would have returned — no write-back needed. Anything less (a source
  // moved on, went silent, or is itself degraded) and recovery decides.
  auto sources = std::make_shared<const std::vector<ProcessId>>(
      (*plan)->sources.begin(), (*plan)->sources.end());
  start_rpc_impl(
      layout_->group(stripe),
      [stripe, sources, val_ts](std::uint32_t, OpId op) -> Message {
        ReadReq req{stripe, op, *sources};
        req.validate_ts = val_ts;
        return req;
      },
      [this, stripe, js, out = std::move(out), missing, plan, sources,
       done = std::move(done)](Replies& replies, bool timed_out) mutable {
        bool confirmed = !timed_out;
        std::vector<erasure::ShardView> shards;
        if (confirmed) {
          for (ProcessId p : *sources) {
            const ReadRep* rep = as<ReadRep>(replies[p]);
            if (rep == nullptr || !rep->validated || !rep->block.has_value()) {
              confirmed = false;
              break;
            }
            shards.push_back(erasure::ShardView{p, *rep->block});
          }
        }
        if (!confirmed) {
          ++stats_.degraded_read_fallbacks;
          recover_read_blocks(stripe, js, std::move(done));
          return;
        }
        ++stats_.degraded_reads;
        out[missing] = codec_->reconstruct(**plan, shards);
        done(std::move(out));
      },
      message_kind_of<ReadRep>, /*wait_for=*/{},
      std::vector<std::uint32_t>(sources->begin(), sources->end()));
}

// ---------------------------------------------------------------------
// Algorithm 3 and footnote 2 — block writes
// ---------------------------------------------------------------------

void Coordinator::write_block(StripeId stripe, BlockIndex j, Block block,
                              WriteOutcomeCb done) {
  ++stats_.block_writes;
  FABEC_CHECK_MSG(j < config_.m, "write_block takes a data-block index");
  auto w = std::make_shared<BlockWrite>();
  w->stripe = stripe;
  w->js = {j};
  w->blocks.push_back(std::move(block));
  w->paper_modify = true;
  run_block_write(std::move(w), std::move(done));
}

void Coordinator::write_blocks(StripeId stripe, std::vector<BlockIndex> js,
                               std::vector<Block> blocks, WriteOutcomeCb done) {
  FABEC_CHECK(!js.empty() && js.size() == blocks.size());
  // Counted by how many blocks the write covers, not by entry point.
  ++(js.size() == 1 ? stats_.block_writes : stats_.multi_block_writes);
  for (std::size_t i = 0; i < js.size(); ++i) {
    FABEC_CHECK_MSG(js[i] < config_.m, "data indices only");
    for (std::size_t l = i + 1; l < js.size(); ++l)
      FABEC_CHECK_MSG(js[i] != js[l], "indices must be distinct");
  }
  auto w = std::make_shared<BlockWrite>();
  w->stripe = stripe;
  w->js = std::move(js);
  w->blocks = std::move(blocks);
  run_block_write(std::move(w), std::move(done));
}

void Coordinator::run_block_write(std::shared_ptr<BlockWrite> write,
                                  WriteOutcomeCb done) {
  write->ts = ts_source_->next();
  const BlockWritePtr w = std::move(write);
  fast_write_blocks(w, [this, w, done = std::move(done)](WriteOutcome fast) {
    if (fast.ok()) {
      ++stats_.fast_block_write_hits;
      done(std::move(fast));
      return;
    }
    if (fast.error() == OpError::kTimeout) {
      // Same deadline discipline as reads: no slow path after a timed-out
      // round.
      done(std::move(fast));
      return;
    }
    slow_write_blocks(w, [this, w, done = std::move(done)](WriteOutcome slow) {
      if (slow.ok() || slow.error() != OpError::kAborted) {
        done(std::move(slow));
        return;
      }
      // An aborted slow path can mean the stripe is torn in a shape the
      // fast path keeps tripping over (e.g. one degraded brick soaked up a
      // partial Modify no other replica accepted). A read would heal it via
      // recover(); a write-only client would livelock. Converge the stripe
      // under a fresh recovery ts — rolling the torn state forward or back
      // exactly as a read would. If it rolled THIS write forward, the write
      // took effect inside its call and is now complete on a quorum: OK.
      // Otherwise it is ⊥, and retryable only if its blocks never left.
      ++stats_.write_repairs;
      recover(w->stripe, [this, w, done = std::move(done)](
                             StripeOutcome repaired) {
        bool took_effect = repaired.ok();
        for (std::size_t i = 0; took_effect && i < w->js.size(); ++i)
          took_effect = (*repaired)[w->js[i]] == w->blocks[i];
        if (took_effect) {
          done(Ack{});
          return;
        }
        ++stats_.aborts;
        done(w->sent ? OpError::kAbortedAfterSend : OpError::kAborted);
      });
    });
  });
}

void Coordinator::fast_write_blocks(BlockWritePtr w, WriteOutcomeCb done) {
  // Lines 75-79: order the write and fetch each p_j's current block and
  // timestamp.
  start_rpc<OrderReadRep>(
      layout_->group(w->stripe),
      [w](std::uint32_t, OpId op) -> Message {
        if (w->paper_modify)
          return OrderReadReq{w->stripe, op, w->js[0], kHighTS, w->ts};
        return MultiOrderReadReq{w->stripe, op, w->js, w->ts};
      },
      [this, w, done = std::move(done)](Replies& replies, bool timed_out) {
        if (timed_out) {
          done(OpError::kTimeout);
          return;
        }
        // Fast path needs: all statuses true and every written process
        // answered with its block. Per-destination deltas also need one
        // common version across ALL replicas, so the Modify precondition
        // ts_j = max-ts holds everywhere; the paper's Modify carries ts_j
        // from p_j and lets each replica check it.
        bool ok = true;
        std::optional<Timestamp> common;
        for (const auto& r : replies) {
          const OrderReadRep* rep = as<OrderReadRep>(r);
          if (rep == nullptr) continue;
          if (!rep->status || (!w->paper_modify && common.has_value() &&
                               *common != rep->lts)) {
            ok = false;
            break;
          }
          if (!w->paper_modify) common = rep->lts;
        }
        std::vector<const Block*> old_blocks;
        for (std::size_t i = 0; ok && i < w->js.size(); ++i) {
          const OrderReadRep* rep = as<OrderReadRep>(replies[w->js[i]]);
          ok = rep != nullptr && rep->block.has_value();
          if (ok) old_blocks.push_back(&*rep->block);
        }
        if (!ok) {
          // The order-read advanced ord-ts wherever it landed; any cached
          // probe would see status=false there. Drop the entry now.
          cache_invalidate(w->stripe);
          done(OpError::kAborted);
          return;
        }
        const Timestamp ts_j = w->paper_modify
                                   ? as<OrderReadRep>(replies[w->js[0]])->lts
                                   : *common;
        w->sent = true;
        start_rpc<ModifyRep>(
            layout_->group(w->stripe), modify_request(w, old_blocks, ts_j),
            [this, w, done](Replies& modify_replies, bool modify_timed_out) {
              if (modify_timed_out ||
                  !all_status_true<ModifyRep>(modify_replies)) {
                cache_invalidate(w->stripe);
                done(modify_timed_out ? OpError::kTimeout : OpError::kAborted);
                return;
              }
              // Full-quorum Modify: the stripe is uniformly at ts, cacheable.
              cache_put(w->stripe, w->ts);
              maybe_send_gc(w->stripe, w->ts);
              done(Ack{});
            });
      },
      std::vector<std::uint32_t>(w->js.begin(), w->js.end()));
}

std::function<Message(std::uint32_t, OpId)> Coordinator::modify_request(
    BlockWritePtr w, const std::vector<const Block*>& old_blocks,
    Timestamp ts_j) const {
  if (w->paper_modify) {
    // Lines 80-82: apply the data write at p_j and the incremental parity
    // update everywhere else.
    auto old_block = std::make_shared<const Block>(*old_blocks[0]);
    return [w, old_block, ts_j](std::uint32_t, OpId op) -> Message {
      return ModifyReq{w->stripe,    op,   w->js[0], *old_block,
                       w->blocks[0], ts_j, w->ts};
    };
  }
  // Combined per-parity deltas: Δ_p = Σ_j G[p][j]·(old_j ^ new_j), with
  // each old_j ^ new_j formed once and shared by every parity.
  std::vector<Block> diffs;
  diffs.reserve(w->js.size());
  for (std::size_t i = 0; i < w->js.size(); ++i) {
    diffs.push_back(*old_blocks[i]);
    xor_into(diffs.back(), w->blocks[i]);
  }
  const std::size_t block_size = old_blocks[0]->size();
  auto deltas = std::make_shared<std::vector<Block>>();
  for (std::uint32_t p = config_.m; p < config_.n; ++p) {
    Block delta(block_size, 0);
    for (std::size_t i = 0; i < w->js.size(); ++i)
      codec_->apply_modify_delta(w->js[i], p, diffs[i], delta);
    deltas->push_back(std::move(delta));
  }
  return [w, deltas, ts_j, m = config_.m](std::uint32_t pos,
                                         OpId op) -> Message {
    MultiModifyReq req{w->stripe, op, w->js, std::nullopt, ts_j, w->ts};
    for (std::size_t i = 0; i < w->js.size(); ++i)
      if (pos == w->js[i]) req.block = w->blocks[i];
    if (pos >= m) req.block = (*deltas)[pos - m];
    return req;
  };
}

void Coordinator::slow_write_blocks(BlockWritePtr w, WriteOutcomeCb done) {
  ++stats_.slow_block_writes;
  ++stats_.recoveries_started;
  cache_invalidate(w->stripe);  // the aborted fast round already moved ord-ts
  // The slow path MUST reuse the operation's timestamp: the aborted fast
  // round may have applied its Modify on a subset of replicas, and if the
  // store-stripe below ran under a fresh ts the operation would occupy two
  // places in the version order — a concurrent writer landing between them
  // makes readers observe A, B, A, which no total order explains. If a
  // replica holds a version at this very ts (its own partial Modify), its
  // order-read veto aborts the slow path instead; run_block_write then
  // repairs the stripe under a genuinely fresh ts before reporting ⊥.
  auto state = std::make_shared<RecoverState>();
  state->stripe = w->stripe;
  state->ts = w->ts;
  state->bound = kHighTS;
  // Lines 84-87: reconstruct the previous stripe, substitute the written
  // blocks, and write the whole stripe back under this operation's
  // timestamp.
  state->done = [this, w, done = std::move(done)](StripeOutcome prev) {
    if (!prev.ok()) {
      done(prev.error());
      return;
    }
    auto value = std::make_shared<std::vector<Block>>(std::move(*prev));
    for (std::size_t i = 0; i < w->js.size(); ++i)
      (*value)[w->js[i]] = w->blocks[i];
    w->sent = true;
    store_stripe(w->stripe, std::move(value), w->ts, std::move(done));
  };
  read_prev_stripe(std::move(state));
}

void Coordinator::repair_stripe(StripeId stripe, WriteOutcomeCb done) {
  recover(stripe, [this, done = std::move(done)](StripeOutcome result) {
    if (result.ok()) {
      done(Ack{});
      return;
    }
    if (result.error() == OpError::kAborted) ++stats_.aborts;
    done(result.error());
  });
}

void Coordinator::rebuild_block(StripeId stripe, BlockIndex lost,
                                WriteOutcomeCb done) {
  FABEC_CHECK_MSG(lost < config_.n, "rebuild_block takes a group position");
  std::vector<BlockIndex> alive;
  for (std::uint32_t pos = 0; pos < config_.n; ++pos)
    if (pos != lost) alive.push_back(pos);
  auto plan = std::make_shared<const std::optional<erasure::RepairPlan>>(
      codec_->repair_plan(lost, alive));
  if (!plan->has_value()) {
    ++stats_.block_rebuild_fallbacks;
    repair_stripe(stripe, std::move(done));
    return;
  }
  auto targets = std::make_shared<const std::vector<ProcessId>>(
      (*plan)->sources.begin(), (*plan)->sources.end());
  start_rpc<ReadRep>(
      layout_->group(stripe),
      [stripe, targets](std::uint32_t, OpId op) -> Message {
        return ReadReq{stripe, op, *targets};
      },
      [this, stripe, lost, plan, targets, done = std::move(done)](
          Replies& replies, bool timed_out) mutable {
        // Evidence required: every plan source replies clean (status=true:
        // no write ordered-but-unwritten there) with a block at ONE common
        // newest version. A timestamp names one unique code word, so m
        // source blocks at one val_ts are coordinates of the same word and
        // the reconstruction below is byte-identical to the block the lost
        // brick missed at val_ts. Other bricks' replies are ignored — the
        // blank replacement itself answers with val_ts = LowTS, and the
        // catch-up write is guarded replica-side regardless (it lands only
        // if val_ts is still above the lost brick's max-ts and ord-ts,
        // i.e. exactly the write it would have accepted originally).
        std::optional<Timestamp> val_ts;
        bool clean = !timed_out;
        std::vector<erasure::ShardView> shards;
        if (clean) {
          for (ProcessId p : *targets) {
            const ReadRep* rep = as<ReadRep>(replies[p]);
            if (rep == nullptr || !rep->status || !rep->block.has_value() ||
                (val_ts.has_value() && *val_ts != rep->val_ts)) {
              clean = false;
              break;
            }
            val_ts = rep->val_ts;
            shards.push_back(erasure::ShardView{p, *rep->block});
          }
        }
        clean = clean && val_ts.has_value();
        if (!clean) {
          ++stats_.block_rebuild_fallbacks;
          repair_stripe(stripe, std::move(done));
          return;
        }
        auto block = std::make_shared<const Block>(
            codec_->reconstruct(**plan, shards));
        write_rebuilt_block(stripe, lost, *val_ts, std::move(block),
                            targets->size(), std::move(done));
      },
      std::vector<std::uint32_t>(targets->begin(), targets->end()));
}

void Coordinator::write_rebuilt_block(StripeId stripe, BlockIndex lost,
                                      Timestamp ts,
                                      std::shared_ptr<const Block> block,
                                      std::size_t fetched,
                                      WriteOutcomeCb done) {
  start_rpc_impl(
      layout_->group(stripe),
      [stripe, ts, block](std::uint32_t, OpId op) -> Message {
        return WriteReq{stripe, op, ts, *block};
      },
      [this, stripe, lost, fetched, done = std::move(done)](Replies& replies,
                                                            bool) mutable {
        const WriteRep* rep = as<WriteRep>(replies[lost]);
        if (rep == nullptr || !rep->status) {
          // Silence, or the lost brick already holds/ordered something newer
          // than this version — its state is beyond a single-block catch-up,
          // so the full recovery write-back decides.
          ++stats_.block_rebuild_fallbacks;
          repair_stripe(stripe, std::move(done));
          return;
        }
        ++stats_.block_rebuilds;
        stats_.rebuild_source_blocks += fetched;
        done(Ack{});
      },
      message_kind_of<WriteRep>, /*wait_for=*/{},
      /*contacts=*/{static_cast<std::uint32_t>(lost)});
}

void Coordinator::scrub_stripe(StripeId stripe, ScrubCb done) {
  scrub_stripe(stripe,
               ScrubExCb([done = std::move(done)](
                             ScrubResult r, std::optional<BlockIndex>) {
                 done(r);
               }));
}

void Coordinator::scrub_stripe(StripeId stripe, ScrubExCb done) {
  // All n positions as read targets: every replica returns its newest block.
  std::vector<ProcessId> all(config_.n);
  std::iota(all.begin(), all.end(), 0);
  start_rpc<ReadRep>(
      layout_->group(stripe),
      [stripe, all](std::uint32_t, OpId op) -> Message {
        return ReadReq{stripe, op, all};
      },
      [this, stripe, done = std::move(done)](Replies& replies,
                                             bool timed_out) {
        if (timed_out) {
          // Could not assemble a full code word before the deadline;
          // nothing was proven either way.
          done(ScrubResult::kInconclusive, std::nullopt);
          return;
        }
        // One common version across every reply, or the scrub is racing a
        // write and proves nothing.
        std::optional<Timestamp> val_ts;
        std::vector<const Block*> blocks(config_.n, nullptr);
        std::uint32_t present = 0;
        for (std::uint32_t pos = 0; pos < config_.n; ++pos) {
          const ReadRep* rep = as<ReadRep>(replies[pos]);
          if (rep == nullptr) continue;
          if (rep->status && !rep->block.has_value()) {
            // A targeted replica with sound timestamps always returns its
            // block — unless the block failed its CRC, in which case the
            // replica served it as an erasure. That is a positive
            // corruption verdict, not an inconclusive race — and the brick
            // itself has named the position, so the repair consumer can run
            // a plan-based single-block rebuild. A quarantined stripe must
            // not serve cached reads until repaired.
            cache_invalidate(stripe);
            done(ScrubResult::kCorrupt, pos);
            return;
          }
          if (!rep->status ||
              (val_ts.has_value() && *val_ts != rep->val_ts)) {
            done(ScrubResult::kInconclusive, std::nullopt);
            return;
          }
          val_ts = rep->val_ts;
          blocks[pos] = &*rep->block;
          ++present;
        }
        if (present < config_.n) {
          // A silent member leaves part of the code word unverified.
          done(ScrubResult::kInconclusive, std::nullopt);
          return;
        }
        // Recompute the parity from views of the data replies — no data
        // block is copied; only k scratch parity blocks are allocated.
        const std::size_t block_size = blocks[0]->size();
        std::vector<erasure::ConstByteSpan> data_views;
        data_views.reserve(config_.m);
        for (std::uint32_t j = 0; j < config_.m; ++j)
          data_views.emplace_back(*blocks[j]);
        std::vector<Block> reencoded(config_.n - config_.m,
                                     Block(block_size));
        const std::vector<erasure::MutByteSpan> parity_views(
            reencoded.begin(), reencoded.end());
        codec_->encode_parity(data_views, parity_views);
        for (std::uint32_t pos = config_.m; pos < config_.n; ++pos) {
          if (reencoded[pos - config_.m] != *blocks[pos]) {
            cache_invalidate(stripe);
            // Silent corruption: the mismatching parity position is NOT
            // necessarily the corrupted block (a rotted data block shows up
            // as a parity mismatch too). Consistency voting attributes it
            // when the family's distance allows (single corruption,
            // distance >= 3); otherwise the verdict stays un-localized and
            // the repair consumer must recover the whole stripe.
            std::vector<erasure::Shard> shards;
            shards.reserve(config_.n);
            for (std::uint32_t i = 0; i < config_.n; ++i)
              shards.push_back(erasure::Shard{i, *blocks[i]});
            done(ScrubResult::kCorrupt, codec_->find_corrupted(shards));
            return;
          }
        }
        done(ScrubResult::kClean, std::nullopt);
      },
      std::vector<std::uint32_t>(all.begin(), all.end()));
}

void Coordinator::maybe_send_gc(StripeId stripe, Timestamp complete_ts) {
  if (!options_.auto_gc) return;
  ++stats_.gc_rounds;
  for (ProcessId brick : layout_->group(stripe)) {
    ++stats_.gc_messages;
    send_(brick, GcReq{stripe, complete_ts});
  }
}

}  // namespace fabec::core
