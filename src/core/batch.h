// Per-destination message batching: many protocol messages, one send.
//
// The request engine admits thousands of concurrent ops, so at any instant
// a coordinator has many messages bound for the same brick (and a brick
// many replies bound for the same coordinator). BatchingSender queues them
// per destination and flushes each queue as one frame on the next executor
// tick — or immediately when a queue reaches max_batch — so the per-send
// cost (CRC, envelope bookkeeping, a syscall per datagram on a real
// network) is paid once per frame instead of once per message. Batching
// changes only *packaging*: every queued message is still delivered
// individually on the receiving side, so the per-op deadline, backoff and
// suspicion semantics (DESIGN.md §9) are untouched; a frame merely makes drop/duplicate/reorder faults hit all of
// its messages together, which the chaos tier exercises deliberately.
//
// Single-threaded: confined to its executor's thread like the coordinator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "core/messages.h"
#include "sim/executor.h"
#include "sim/time.h"

namespace fabec::core {

struct BatchConfig {
  /// Off by default: every send flushes immediately as a singleton.
  bool enabled = false;
  /// A destination queue reaching this size flushes without waiting for
  /// the tick (bounds frame size).
  std::size_t max_batch = 32;
  /// Delay before the armed flush tick runs. 0 = end of the current
  /// instant (same virtual time, after the event that enqueued).
  sim::Duration flush_delay = 0;
};

struct BatchStats {
  std::uint64_t messages_enqueued = 0;
  std::uint64_t frames_flushed = 0;
  std::uint64_t flush_ticks = 0;     // timer-driven flush passes
  std::uint64_t size_flushes = 0;    // queues flushed early at max_batch
  std::uint64_t messages_dropped = 0;  // pending at drop_pending (crash)
  std::size_t max_frame_messages = 0;
};

class BatchingSender {
 public:
  /// Ships one flushed frame (>= 1 messages) to `dest`.
  using FlushFn = std::function<void(ProcessId dest,
                                     std::vector<Message> msgs)>;

  BatchingSender(sim::Executor* executor, std::uint32_t num_dests,
                 BatchConfig config, FlushFn flush);
  ~BatchingSender();

  BatchingSender(const BatchingSender&) = delete;
  BatchingSender& operator=(const BatchingSender&) = delete;

  /// Queues `msg` for `dest` and arms the flush tick. With batching
  /// disabled, flushes immediately (singleton frame).
  void send(ProcessId dest, Message msg);

  /// Flushes every non-empty queue now, in first-dirtied order (the
  /// deterministic order the sim's reproducibility hashes rely on).
  void flush_all();

  /// Discards everything queued and disarms the tick — a crashing brick's
  /// unsent frames are volatile state and die with it.
  void drop_pending();

  std::size_t pending() const;
  const BatchStats& stats() const { return stats_; }

 private:
  void arm();
  void flush_dest(ProcessId dest);

  sim::Executor* executor_;
  BatchConfig config_;
  FlushFn flush_;
  std::vector<std::vector<Message>> queues_;  // indexed by dest
  std::vector<ProcessId> dirty_;              // dests with queued messages
  bool armed_ = false;
  sim::EventId tick_event_{};
  BatchStats stats_;
};

}  // namespace fabec::core
