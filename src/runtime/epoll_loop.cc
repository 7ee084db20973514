#include "runtime/epoll_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "common/check.h"

namespace fabec::runtime {

EpollLoop::EpollLoop(std::uint64_t seed)
    : epoch_(Clock::now()), rng_(seed) {
  epoll_fd_ = ::epoll_create1(0);
  FABEC_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  FABEC_CHECK_MSG(wake_fd_ >= 0, "eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  FABEC_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);
}

EpollLoop::~EpollLoop() {
  stop();
  // In start() mode a stop() issued from the loop thread could not join;
  // the destructor (never on the loop thread once run exits) finishes it.
  if (worker_.joinable()) worker_.join();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

std::int64_t EpollLoop::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void EpollLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

sim::EventId EpollLoop::schedule_event(sim::Duration delay,
                                       std::function<void()> fn) {
  FABEC_CHECK(delay >= 0);
  const std::int64_t due = now_ns() + delay;
  sim::EventId id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Post-stop scheduling is dropped, not fatal: a client thread may race
    // its last blocking op against close(); the owner fails such ops itself.
    if (stopping_) return sim::EventId{due, ~std::uint64_t{0}};
    id = sim::EventId{due, next_seq_++};
    timers_.emplace(id, std::move(fn));
  }
  // Another thread must poke the loop, which may be sleeping past the new
  // deadline. The loop thread itself re-derives its timeout from the queue
  // before its next epoll_wait, so a poke there would only cost an eventfd
  // write and a spurious wakeup — twice per coordinator round.
  if (!on_loop_thread()) wake();
  return id;
}

bool EpollLoop::cancel_event(sim::EventId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  return timers_.erase(id) > 0;
}

void EpollLoop::add_fd(int fd, std::function<void()> on_readable) {
  FABEC_CHECK_MSG(loop_thread_.load() == std::thread::id{} ||
                      on_loop_thread(),
                  "add_fd: loop thread (or pre-run) only");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  FABEC_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
                  "epoll_ctl ADD failed");
  fd_handlers_[fd] = std::move(on_readable);
}

void EpollLoop::remove_fd(int fd) {
  FABEC_CHECK_MSG(loop_thread_.load() == std::thread::id{} ||
                      on_loop_thread(),
                  "remove_fd: loop thread (or pre-run) only");
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  fd_handlers_.erase(fd);
}

void EpollLoop::start() {
  FABEC_CHECK_MSG(!worker_.joinable(), "loop already started");
  worker_ = std::thread([this] { loop_main(); });
}

void EpollLoop::run() { loop_main(); }

void EpollLoop::stop() {
  if (!stopping_.exchange(true)) wake();
  if (on_loop_thread()) return;  // loop_main unwinds after the callback
  // A dedicated mutex: joining under mutex_ would deadlock against a loop
  // thread blocked on mutex_ inside schedule_event.
  std::lock_guard<std::mutex> lock(join_mutex_);
  if (worker_.joinable()) worker_.join();
}

void EpollLoop::run_sync(std::function<void()> fn) {
  FABEC_CHECK_MSG(!on_loop_thread(), "run_sync would deadlock");
  std::promise<void> done;
  auto future = done.get_future();
  post([&fn, &done] {
    fn();
    done.set_value();
  });
  future.get();
}

int EpollLoop::run_due_timers() {
  while (!stopping_) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (timers_.empty()) return -1;  // sleep until an fd or a wake
      auto it = timers_.begin();
      const std::int64_t now = now_ns();
      if (it->first.time > now) {
        // Round up so a not-quite-due timer never busy-spins the loop.
        const std::int64_t ms = (it->first.time - now + 999'999) / 1'000'000;
        return static_cast<int>(std::min<std::int64_t>(ms, 60'000));
      }
      fn = std::move(it->second);
      timers_.erase(it);
    }
    fn();
  }
  return -1;
}

void EpollLoop::loop_main() {
  loop_thread_ = std::this_thread::get_id();
  epoll_event events[64];
  while (!stopping_) {
    const int timeout_ms = run_due_timers();
    if (stopping_) break;
    const int ready = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (ready < 0) continue;  // EINTR: a signal landed on this thread
    for (int i = 0; i < ready && !stopping_; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        // A non-semaphore eventfd returns (and clears) its whole count in
        // one read.
        std::uint64_t drained;
        [[maybe_unused]] const ssize_t n =
            ::read(wake_fd_, &drained, sizeof drained);
        continue;
      }
      // Look up per event: an earlier handler this round may remove_fd.
      const auto handler = fd_handlers_.find(fd);
      if (handler != fd_handlers_.end()) handler->second();
    }
  }
  loop_thread_ = std::thread::id{};
}

}  // namespace fabec::runtime
