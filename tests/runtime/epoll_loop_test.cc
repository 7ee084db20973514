// EpollLoop: timers (ordering, same-deadline FIFO, cancellation, the
// clock), cross-thread posting, run_sync, loop-thread detection, fd
// readiness callbacks, stop semantics.
#include "runtime/epoll_loop.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

namespace fabec::runtime {
namespace {

TEST(EpollLoopTest, RunsDueTimersInDeadlineOrder) {
  EpollLoop loop;
  std::vector<int> order;
  std::promise<void> done;
  loop.schedule_event(sim::milliseconds(30), [&] {
    order.push_back(3);
    done.set_value();
  });
  loop.schedule_event(sim::milliseconds(10), [&] { order.push_back(1); });
  // Equal delays: the (deadline, submission) key runs them FIFO.
  for (int i = 20; i < 25; ++i)
    loop.schedule_event(sim::milliseconds(20), [&, i] { order.push_back(i); });
  loop.start();
  done.get_future().wait();
  loop.stop();
  EXPECT_EQ(order, (std::vector<int>{1, 20, 21, 22, 23, 24, 3}));
}

TEST(EpollLoopTest, CancelledTimerNeverFires) {
  EpollLoop loop;
  std::atomic<bool> fired{false};
  const auto id =
      loop.schedule_event(sim::milliseconds(20), [&] { fired = true; });
  EXPECT_TRUE(loop.cancel_event(id));
  EXPECT_FALSE(loop.cancel_event(id));  // already gone
  std::promise<void> done;
  loop.schedule_event(sim::milliseconds(40), [&] { done.set_value(); });
  loop.start();
  done.get_future().wait();
  loop.stop();
  EXPECT_FALSE(fired);
}

TEST(EpollLoopTest, PostRunsOnLoopThread) {
  EpollLoop loop;
  EXPECT_FALSE(loop.on_loop_thread());  // not running yet
  loop.start();
  std::promise<bool> on_loop;
  loop.post([&] { on_loop.set_value(loop.on_loop_thread()); });
  EXPECT_TRUE(on_loop.get_future().get());
  EXPECT_FALSE(loop.on_loop_thread());
  loop.stop();
}

TEST(EpollLoopTest, RunSyncReturnsAfterExecution) {
  EpollLoop loop;
  loop.start();
  int value = 0;
  loop.run_sync([&] { value = 42; });
  EXPECT_EQ(value, 42);
  loop.stop();
}

TEST(EpollLoopTest, TimersScheduledFromLoopThreadFire) {
  EpollLoop loop;
  loop.start();
  const std::int64_t before = loop.now_ns();
  std::promise<void> done;
  loop.post([&] {
    loop.schedule_event(sim::milliseconds(5),
                        [&] { done.set_value(); });
  });
  EXPECT_EQ(done.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  // The timer clock advanced at least by the delay it waited out.
  EXPECT_GE(loop.now_ns() - before, sim::milliseconds(5));
  loop.stop();
}

TEST(EpollLoopTest, FdCallbackFiresOnReadable) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EpollLoop loop;
  std::promise<char> received;
  loop.add_fd(fds[0], [&] {
    char c = 0;
    ASSERT_EQ(::read(fds[0], &c, 1), 1);
    received.set_value(c);
  });
  loop.start();
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  EXPECT_EQ(received.get_future().get(), 'x');
  loop.run_sync([&] { loop.remove_fd(fds[0]); });
  // After removal the callback must not run again; this write would abort
  // the promise double-set otherwise.
  ASSERT_EQ(::write(fds[1], "y", 1), 1);
  std::promise<void> settled;
  loop.schedule_event(sim::milliseconds(30), [&] { settled.set_value(); });
  settled.get_future().wait();
  loop.stop();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EpollLoopTest, ShortTimerArmedFromFdHandlerFiresOnTime) {
  // The coordinator's shape: a datagram handler arms a retransmit timer
  // while the loop's only other timer is far away. The loop-thread arm
  // sends no wakeup, so the loop must re-derive its epoll timeout from the
  // new deadline instead of sleeping until the far one.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EpollLoop loop;
  loop.schedule_event(sim::seconds(30), [] {});
  std::int64_t armed_at = 0;
  std::promise<std::int64_t> fired;
  loop.add_fd(fds[0], [&] {
    char c = 0;
    ASSERT_EQ(::read(fds[0], &c, 1), 1);
    armed_at = loop.now_ns();
    loop.schedule_event(sim::milliseconds(2),
                        [&] { fired.set_value(loop.now_ns()); });
  });
  loop.start();
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  auto future = fired.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  const std::int64_t waited = future.get() - armed_at;
  EXPECT_GE(waited, sim::milliseconds(2));
  EXPECT_LT(waited, sim::milliseconds(500));
  loop.run_sync([&] { loop.remove_fd(fds[0]); });
  loop.stop();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EpollLoopTest, StopIsIdempotentFromAnyThread) {
  EpollLoop loop;
  loop.start();
  loop.stop();
  loop.stop();  // second stop is a no-op
  // Scheduling after stop is silently dropped, not a crash.
  loop.schedule_event(sim::milliseconds(1), [] { FAIL(); });
}

TEST(EpollLoopTest, StopFromLoopThread) {
  EpollLoop loop;
  std::promise<void> stopping;
  loop.schedule_event(sim::milliseconds(5), [&] {
    loop.stop();  // a signal handler's shape: stop the loop we run on
    stopping.set_value();
  });
  loop.start();
  stopping.get_future().wait();
  loop.stop();  // join
}

TEST(EpollLoopTest, RunInlineDrivesLoopOnCallingThread) {
  EpollLoop loop;
  std::atomic<int> ticks{0};
  loop.schedule_event(sim::milliseconds(1), [&] {
    ++ticks;
    loop.schedule_event(sim::milliseconds(1), [&] {
      ++ticks;
      loop.stop();
    });
  });
  loop.run();  // returns once stop() ran
  EXPECT_EQ(ticks.load(), 2);
}

}  // namespace
}  // namespace fabec::runtime
