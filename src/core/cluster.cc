#include "core/cluster.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace fabec::core {

Cluster::Cluster(ClusterConfig config, std::uint64_t seed)
    : config_(config),
      layout_(config.total_bricks == 0 ? config.n : config.total_bricks,
              config.n),
      codec_(erasure::make_code_family(config.code, config.m, config.n)),
      sim_(seed),
      net_(sim_, layout_.total_bricks(), config.net),
      procs_(layout_.total_bricks()) {
  const std::uint32_t bricks = layout_.total_bricks();
  FABEC_CHECK(config_.clock_offsets.empty() ||
              config_.clock_offsets.size() == bricks);
  const quorum::Config qc = quorum_config();
  bricks_.reserve(bricks);
  for (ProcessId p = 0; p < bricks; ++p) {
    auto brick = std::make_unique<Brick>(config_.block_size);
    brick->replica = std::make_unique<RegisterReplica>(p, qc, &layout_,
                                                       codec_.get(), &brick->store);
    const sim::Duration offset =
        config_.clock_offsets.empty() ? 0 : config_.clock_offsets[p];
    brick->ts_source = std::make_unique<TimestampSource>(
        p, [this, offset]() { return sim_.now() + offset; });
    brick->coordinator = std::make_unique<Coordinator>(
        p, qc, &layout_, codec_.get(), &executor_, brick->ts_source.get(),
        [this, p](ProcessId dest, Message msg) {
          send_from(p, dest, std::move(msg));
        },
        config_.coordinator);
    brick->batcher = std::make_unique<BatchingSender>(
        &executor_, bricks, config_.batch,
        [this, p](ProcessId dest, std::vector<Message> msgs) {
          net_.send(p, dest, Envelope{std::move(msgs)});
        });
    bricks_.push_back(std::move(brick));
  }

  net_.set_delivery_gate([this](ProcessId to) { return procs_.alive(to); });
  net_.set_handler([this](ProcessId from, ProcessId to, Envelope envelope) {
    deliver(from, to, std::move(envelope));
  });
  for (ProcessId p = 0; p < bricks; ++p) {
    procs_.set_on_crash(p, [this, p] {
      bricks_[p]->coordinator->drop_all_pending();
      bricks_[p]->reply_cache.clear();
      bricks_[p]->batcher->drop_pending();
    });
  }
}

void Cluster::send_from(ProcessId p, ProcessId dest, Message msg) {
  bricks_[p]->batcher->send(dest, std::move(msg));
}

void Cluster::crash(ProcessId p) {
  if (procs_.alive(p) && crash_listener_) crash_listener_(p);
  procs_.crash(p);
}

sim::EventId Cluster::schedule_crash(sim::Time at, ProcessId p) {
  return sim_.schedule_at(at, [this, p] { crash(p); });
}

sim::EventId Cluster::schedule_recovery(sim::Time at, ProcessId p) {
  return sim_.schedule_at(at, [this, p] { recover_brick(p); });
}

void Cluster::set_phase_probe(std::function<void(ProcessId, OpId)> probe) {
  for (ProcessId p = 0; p < layout_.total_bricks(); ++p) {
    if (!probe) {
      bricks_[p]->coordinator->set_phase_probe(nullptr);
      continue;
    }
    bricks_[p]->coordinator->set_phase_probe(
        [probe, p](OpId phase) { probe(p, phase); });
  }
}

void Cluster::deliver(ProcessId from, ProcessId to, Envelope envelope) {
  // The frame is the drop/duplicate unit; delivery unpacks it back into
  // individual messages, so protocol handlers never see batching. Replies
  // generated while draining a frame queue on `to`'s batcher and leave as
  // one reply frame — the amortization works in both directions.
  for (Message& msg : envelope.msgs) deliver_one(from, to, std::move(msg));
}

void Cluster::deliver_one(ProcessId from, ProcessId to, Message msg) {
  Brick& brick = *bricks_[to];
  if (!is_request(msg)) {
    brick.coordinator->on_reply(from, msg);
    return;
  }
  if (std::holds_alternative<GcReq>(msg)) {
    brick.replica->handle(msg);  // fire-and-forget, idempotent
    return;
  }
  const auto key = std::make_pair(
      from, std::visit(
                [](const auto& m) -> OpId {
                  if constexpr (requires { m.op; })
                    return m.op;
                  else
                    return 0;
                },
                msg));
  if (auto cached = brick.reply_cache.find(key);
      cached != brick.reply_cache.end()) {
    send_from(to, from, cached->second);
    return;
  }
  const storage::DiskStats io_before = brick.store.io();
  std::optional<Message> reply = brick.replica->handle(msg);
  FABEC_CHECK(reply.has_value());
  brick.reply_cache.emplace(key, *reply);
  if (config_.disk_service_time > 0) {
    const storage::DiskStats& io_after = brick.store.io();
    const std::uint64_t ios = (io_after.disk_reads - io_before.disk_reads) +
                              (io_after.disk_writes - io_before.disk_writes);
    if (ios > 0) {
      // The reply waits for the disk; if the brick crashes meanwhile, the
      // reply is lost with its volatile state (epoch check).
      const std::uint64_t epoch = procs_.epoch(to);
      sim_.schedule_after(
          static_cast<sim::Duration>(ios) * config_.disk_service_time,
          [this, to, from, epoch, r = std::move(*reply)]() mutable {
            if (procs_.epoch(to) != epoch || !procs_.alive(to)) return;
            send_from(to, from, std::move(r));
          });
      return;
    }
  }
  send_from(to, from, std::move(*reply));
}

namespace {

template <typename T>
std::optional<T> value_of(Outcome<T> outcome) {
  if (!outcome.ok()) return std::nullopt;
  return std::move(*outcome);
}

}  // namespace

std::optional<std::vector<Block>> Cluster::read_stripe(ProcessId coord,
                                                       StripeId stripe) {
  FABEC_CHECK_MSG(procs_.alive(coord), "coordinator brick is down");
  return value_of(run_sync<std::vector<Block>>([&](auto done) {
    coordinator(coord).read_stripe(stripe, std::move(done));
  }));
}

bool Cluster::write_stripe(ProcessId coord, StripeId stripe,
                           std::vector<Block> data) {
  FABEC_CHECK_MSG(procs_.alive(coord), "coordinator brick is down");
  return run_sync<Ack>([&](auto done) {
           coordinator(coord).write_stripe(stripe, std::move(data),
                                           std::move(done));
         }).ok();
}

std::optional<Block> Cluster::read_block(ProcessId coord, StripeId stripe,
                                         BlockIndex j) {
  FABEC_CHECK_MSG(procs_.alive(coord), "coordinator brick is down");
  return value_of(run_sync<Block>([&](auto done) {
    coordinator(coord).read_block(stripe, j, std::move(done));
  }));
}

bool Cluster::write_block(ProcessId coord, StripeId stripe, BlockIndex j,
                          Block block) {
  FABEC_CHECK_MSG(procs_.alive(coord), "coordinator brick is down");
  return run_sync<Ack>([&](auto done) {
           coordinator(coord).write_block(stripe, j, std::move(block),
                                          std::move(done));
         }).ok();
}

std::optional<std::vector<Block>> Cluster::read_blocks(
    ProcessId coord, StripeId stripe, std::vector<BlockIndex> js) {
  FABEC_CHECK_MSG(procs_.alive(coord), "coordinator brick is down");
  return value_of(run_sync<std::vector<Block>>([&](auto done) {
    coordinator(coord).read_blocks(stripe, std::move(js), std::move(done));
  }));
}

bool Cluster::write_blocks(ProcessId coord, StripeId stripe,
                           std::vector<BlockIndex> js,
                           std::vector<Block> blocks) {
  FABEC_CHECK_MSG(procs_.alive(coord), "coordinator brick is down");
  return run_sync<Ack>([&](auto done) {
           coordinator(coord).write_blocks(stripe, std::move(js),
                                           std::move(blocks), std::move(done));
         }).ok();
}

storage::DiskStats Cluster::total_io() const {
  storage::DiskStats total;
  for (const auto& brick : bricks_) total += brick->store.io();
  return total;
}

void Cluster::reset_io_stats() {
  for (auto& brick : bricks_) brick->store.reset_io();
}

CoordinatorStats Cluster::total_coordinator_stats() const {
  CoordinatorStats total;
  for (const auto& brick : bricks_) {
    const CoordinatorStats& s = brick->coordinator->stats();
    total.stripe_reads += s.stripe_reads;
    total.stripe_writes += s.stripe_writes;
    total.block_reads += s.block_reads;
    total.block_writes += s.block_writes;
    total.multi_block_reads += s.multi_block_reads;
    total.multi_block_writes += s.multi_block_writes;
    total.fast_read_hits += s.fast_read_hits;
    total.recoveries_started += s.recoveries_started;
    total.recovery_iterations += s.recovery_iterations;
    total.fast_block_write_hits += s.fast_block_write_hits;
    total.slow_block_writes += s.slow_block_writes;
    total.write_repairs += s.write_repairs;
    total.aborts += s.aborts;
    total.gc_messages += s.gc_messages;
    total.gc_rounds += s.gc_rounds;
    total.retransmit_rounds += s.retransmit_rounds;
    total.op_timeouts += s.op_timeouts;
    total.sends_suppressed += s.sends_suppressed;
    total.suspect_probes += s.suspect_probes;
    total.mismatched_replies += s.mismatched_replies;
    total.cached_read_hits += s.cached_read_hits;
    total.cached_read_misses += s.cached_read_misses;
    total.cached_read_fallbacks += s.cached_read_fallbacks;
    total.cache_invalidations += s.cache_invalidations;
    total.cache_evictions += s.cache_evictions;
    total.block_rebuilds += s.block_rebuilds;
    total.block_rebuild_fallbacks += s.block_rebuild_fallbacks;
    total.rebuild_source_blocks += s.rebuild_source_blocks;
    total.degraded_reads += s.degraded_reads;
    total.degraded_read_fallbacks += s.degraded_read_fallbacks;
  }
  return total;
}

BatchStats Cluster::total_batch_stats() const {
  BatchStats total;
  for (const auto& brick : bricks_) {
    const BatchStats& s = brick->batcher->stats();
    total.messages_enqueued += s.messages_enqueued;
    total.frames_flushed += s.frames_flushed;
    total.flush_ticks += s.flush_ticks;
    total.size_flushes += s.size_flushes;
    total.messages_dropped += s.messages_dropped;
    total.max_frame_messages =
        std::max(total.max_frame_messages, s.max_frame_messages);
  }
  return total;
}

std::size_t Cluster::total_log_entries() const {
  std::size_t total = 0;
  for (const auto& brick : bricks_) total += brick->store.total_log_entries();
  return total;
}

std::size_t Cluster::total_log_blocks() const {
  std::size_t total = 0;
  for (const auto& brick : bricks_) total += brick->store.total_log_blocks();
  return total;
}

}  // namespace fabec::core
