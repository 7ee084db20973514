// Epoll-based socket event loop: the wall-clock runtime's one executor.
//
// A single thread serializes all protocol work: one epoll instance
// multiplexes readable sockets, an eventfd wakes the loop for cross-thread
// posts, and a timer queue drives the protocol's retransmit/deadline
// machinery — datagrams are decoded and handled on the same thread that
// owns all protocol state, with no hop and no lock on the hot path. This is
// the threading model `brickd` and the client volume library share
// (DESIGN.md §11).
//
// Implements sim::Executor, so core::Coordinator and core::RegisterReplica
// glue run on it unchanged. The loop can run inline on the caller's thread
// (`run()` — a daemon's main thread) or on a background worker (`start()` —
// a client library embedded in an application).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "sim/executor.h"

namespace fabec::runtime {

class EpollLoop final : public sim::Executor {
 public:
  explicit EpollLoop(std::uint64_t seed = 1);
  ~EpollLoop() override;

  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  // --- sim::Executor -----------------------------------------------------
  /// `delay` is in nanoseconds of real time.
  sim::EventId schedule_event(sim::Duration delay,
                              std::function<void()> fn) override;
  bool cancel_event(sim::EventId id) override;
  /// Only valid on the loop thread, where access is naturally serialized.
  Rng& random() override { return rng_; }

  // --- file descriptors ---------------------------------------------------
  /// Registers `fd` for readability; `on_readable` runs on the loop thread
  /// every time epoll reports EPOLLIN (or an error/hangup — the callback
  /// discovers which by reading). The fd stays owned by the caller.
  void add_fd(int fd, std::function<void()> on_readable);
  /// Deregisters `fd`; its callback will not run again. Loop thread or
  /// pre-run only.
  void remove_fd(int fd);

  // --- driving the loop ---------------------------------------------------
  /// Runs the loop on the calling thread until stop(). A daemon calls this
  /// from main() after installing its signal plumbing.
  void run();
  /// Runs the loop on a background worker thread instead.
  void start();
  /// Stops the loop (either mode) and joins the worker if one was started.
  /// Pending timers are dropped; further scheduling is an error. Idempotent
  /// and callable from any thread, including the loop thread itself (a
  /// signal-triggered shutdown callback stops the loop it runs on).
  void stop();

  // --- client-thread helpers ----------------------------------------------
  /// Runs `fn` on the loop thread as soon as possible.
  void post(std::function<void()> fn) { schedule_event(0, std::move(fn)); }
  /// Posts `fn` and blocks until it has run. Must NOT be called from the
  /// loop thread (it would deadlock).
  void run_sync(std::function<void()> fn);

  bool on_loop_thread() const {
    return std::this_thread::get_id() == loop_thread_.load();
  }

  /// Nanoseconds since the loop object was constructed (the timer clock).
  std::int64_t now_ns() const;

 private:
  void loop_main();
  /// Runs every timer whose deadline has passed; returns the epoll timeout
  /// (ms) until the next one, or -1 for "no timers".
  int run_due_timers();
  void wake();

  using Clock = std::chrono::steady_clock;

  Clock::time_point epoch_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: cross-thread posts and stop
  mutable std::mutex mutex_;
  std::mutex join_mutex_;  ///< serializes concurrent stop() joins
  std::map<sim::EventId, std::function<void()>> timers_;  // keyed (ns, seq)
  std::uint64_t next_seq_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::thread::id> loop_thread_{};
  Rng rng_;
  std::thread worker_;  ///< joinable only in start() mode
  /// fd -> callback; mutated before run()/start() or from the loop thread.
  std::map<int, std::function<void()>> fd_handlers_;
};

}  // namespace fabec::runtime
