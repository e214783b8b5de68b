// EventLoop unit tests: posted work, fd dispatch, and timers kept in the
// loop's sim::Scheduler behind a timerfd armed at its next deadline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <stdexcept>
#include <thread>
#include <unistd.h>
#include <vector>

#include "net/event_loop.h"
#include "util/ensure.h"

namespace cbc::net {
namespace {

TEST(EventLoopTest, ForcePollIsRefused) {
  // Options selects nothing: epoll is the one backend.
  EXPECT_THROW(EventLoop({.force_poll = true, .wheel = {}}), InvalidArgument);
}

TEST(EventLoopTest, PostedTaskRunsAndStopExits) {
  EventLoop loop;
  bool ran = false;
  loop.post([&] {
    ran = true;
    loop.stop();
  });
  loop.run();  // returns only because the posted task stopped it
  EXPECT_TRUE(ran);
}

TEST(EventLoopTest, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::vector<int> fired;
  loop.schedule(20'000, [&] {
    fired.push_back(2);
    loop.stop();
  });
  loop.schedule(5'000, [&] { fired.push_back(1); });
  const auto start = std::chrono::steady_clock::now();
  loop.run();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  // 20ms timer actually waited (generous lower bound for CI jitter).
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            15'000);
}

TEST(EventLoopTest, CrossThreadPostAndScheduleAreDelivered) {
  EventLoop loop;
  std::atomic<int> count{0};
  std::thread producer;
  loop.post([&] {
    // Spawn the producer once the loop is live; it posts from off-thread.
    producer = std::thread([&] {
      for (int i = 0; i < 100; ++i) {
        loop.post([&] { count.fetch_add(1); });
      }
      loop.schedule(1'000, [&] {
        count.fetch_add(1);
        loop.stop();
      });
    });
  });
  loop.run();
  producer.join();
  EXPECT_EQ(count.load(), 101);
}

TEST(EventLoopTest, FdReadabilityDispatchesHandler) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::vector<char> got;
  loop.add_fd(fds[0], [&] {
    char byte = 0;
    while (::read(fds[0], &byte, 1) == 1) {
      got.push_back(byte);
    }
    if (got.size() >= 3) {
      loop.stop();
    }
  });
  loop.post([&] {
    ASSERT_EQ(::write(fds[1], "abc", 3), 3);
  });
  loop.run();
  EXPECT_EQ(got, (std::vector<char>{'a', 'b', 'c'}));
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoopTest, RemoveFdStopsDispatch) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int dispatched = 0;
  loop.add_fd(fds[0], [&] {
    dispatched += 1;
    char buffer[16];
    while (::read(fds[0], buffer, sizeof(buffer)) > 0) {
    }
    // Remove ourselves mid-dispatch — must be safe (tombstone, not erase).
    loop.remove_fd(fds[0]);
  });
  loop.post([&] { ASSERT_EQ(::write(fds[1], "x", 1), 1); });
  // Second write after removal must not dispatch; a timer ends the test.
  loop.schedule(10'000, [&] { ASSERT_EQ(::write(fds[1], "y", 1), 1); });
  loop.schedule(40'000, [&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(dispatched, 1);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoopTest, NowUsAdvancesMonotonically) {
  EventLoop loop;
  const SimTime a = loop.now_us();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const SimTime b = loop.now_us();
  EXPECT_GE(b - a, 1'000);
}

TEST(EventLoopTest, InLoopThreadIsAccurate) {
  EventLoop loop;
  EXPECT_FALSE(loop.in_loop_thread());
  bool inside = false;
  loop.post([&] {
    inside = loop.in_loop_thread();
    loop.stop();
  });
  loop.run();
  EXPECT_TRUE(inside);
}

TEST(EventLoopTest, ThrowingCallbackLeavesTheLoopIdleAndRerunnable) {
  // An exception from a callback leaves run() through the stack; the loop
  // must end up idle (its destructor asserts that) and run again.
  EventLoop loop;
  loop.schedule(1'000, [] { throw std::runtime_error("callback failed"); });
  EXPECT_THROW(loop.run(), std::runtime_error);
  EXPECT_FALSE(loop.running());
  EXPECT_FALSE(loop.in_loop_thread());
  bool ran = false;
  loop.post([&] {
    ran = true;
    loop.stop();
  });
  loop.run();
  EXPECT_TRUE(ran);
}

TEST(EventLoopTest, LoopThreadPostRunsPromptlyWithoutAWakeupWrite) {
  // No timer is armed, so nothing but the pending task itself may keep
  // the loop from blocking for its one-second backstop. The first task
  // is posted before run() and wakes the loop; the second, posted from
  // the first, runs one iteration later, after that wakeup is drained.
  EventLoop loop;
  std::chrono::steady_clock::time_point posted;
  std::chrono::steady_clock::time_point ran;
  std::uint64_t writes_at_post = 0;
  std::uint64_t writes_at_run = 0;
  loop.post([&] {
    loop.post([&] {
      writes_at_post = loop.stats().wakeup_writes;
      posted = std::chrono::steady_clock::now();
      loop.post([&] {
        ran = std::chrono::steady_clock::now();
        writes_at_run = loop.stats().wakeup_writes;
        loop.stop();
      });
    });
  });
  loop.run();
  EXPECT_LT(ran - posted, std::chrono::milliseconds(50));
  EXPECT_EQ(writes_at_run, writes_at_post);
}

TEST(EventLoopTest, TimerArmedBeforeTheHeldDeadlineFiresOnTime) {
  EventLoop loop;
  std::chrono::steady_clock::time_point armed;
  std::chrono::steady_clock::time_point fired;
  loop.post([&] {
    loop.schedule(100'000, [&] { loop.stop(); });  // the held deadline
    // This task runs one iteration later, with the timer source holding
    // the 100 ms deadline.
    loop.post([&] {
      armed = std::chrono::steady_clock::now();
      loop.schedule(10'000, [&] {
        fired = std::chrono::steady_clock::now();
        loop.stop();
      });
    });
  });
  loop.run();
  ASSERT_NE(fired.time_since_epoch().count(), 0)
      << "the 10 ms timer never ran";
  const auto waited = fired - armed;
  EXPECT_GE(waited, std::chrono::milliseconds(8));
  EXPECT_LT(waited, std::chrono::milliseconds(60));
}

TEST(EventLoopTest, TimerArmedRightAfterTheTimerFiresFiresOnTime) {
  // No other timer: a timer source left believing it still held a
  // deadline would sleep until the loop's one-second backstop.
  EventLoop loop;
  const auto start = std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point fired;
  loop.schedule(10'000, [&] {
    loop.schedule(10'000, [&] {
      fired = std::chrono::steady_clock::now();
      loop.stop();
    });
  });
  loop.run();
  const auto waited = fired - start;
  EXPECT_GE(waited, std::chrono::milliseconds(15));
  EXPECT_LT(waited, std::chrono::milliseconds(300));
}

TEST(EventLoopTest, TimerSourceIsReArmedOnlyWhenTheDeadlineMoves) {
  EventLoop loop;
  std::atomic<int> woken{0};
  std::uint64_t rearms_at_fire = 0;
  int woken_at_fire = 0;
  std::thread producer;
  loop.post([&] {
    loop.schedule(90'000, [&] {
      rearms_at_fire = loop.stats().timer_rearms;
      woken_at_fire = woken.load();
      loop.stop();
    });
    // Every cross-thread post wakes the loop; none moves the deadline.
    producer = std::thread([&] {
      for (int i = 0; i < 20; ++i) {
        loop.post([&] { woken.fetch_add(1); });
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  loop.run();
  producer.join();
  EXPECT_GE(woken_at_fire, 1);
  EXPECT_GE(loop.stats().wakeup_writes, 20u);
  // Armed once for the 90 ms deadline however often the loop woke.
  EXPECT_EQ(rearms_at_fire, 1u);
}

TEST(EventLoopTest, DistantTimerArmsTheTimerSourceOnceAndFiresOnTime) {
  // The timer source is set for the queue's exact next deadline however
  // far off it lies: one arm, and no wake-up before the deadline.
  EventLoop loop;
  const auto start = std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point fired;
  std::uint64_t rearms_at_fire = 0;
  loop.schedule(300'000, [&] {
    fired = std::chrono::steady_clock::now();
    rearms_at_fire = loop.stats().timer_rearms;
    loop.stop();
  });
  loop.run();
  EXPECT_GE(fired - start, std::chrono::milliseconds(295));
  EXPECT_EQ(rearms_at_fire, 1u);
}

TEST(EventLoopTest, LoopBlocksOnceItsLastTimerHasFired) {
  // After the only timer fires the loop must sleep until the next event,
  // not spin on a timer source that still reads as ready.
  EventLoop loop;
  const auto thread_cpu = [] {
    timespec now{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return std::chrono::seconds(now.tv_sec) +
           std::chrono::nanoseconds(now.tv_nsec);
  };
  std::chrono::nanoseconds cpu_at_fire{0};
  std::chrono::nanoseconds cpu_at_wake{0};
  std::thread waker;
  loop.schedule(5'000, [&] {
    cpu_at_fire = thread_cpu();
    waker = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      loop.post([&] {
        cpu_at_wake = thread_cpu();
        loop.stop();
      });
    });
  });
  loop.run();
  waker.join();
  EXPECT_LT(cpu_at_wake - cpu_at_fire, std::chrono::milliseconds(30));
}

}  // namespace
}  // namespace cbc::net
