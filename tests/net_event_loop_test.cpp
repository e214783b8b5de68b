// TimerWheel and EventLoop unit tests. The loop tests run on both
// backends (epoll and poll) via a bool parameter — identical observable
// behavior is part of the EventLoop contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <ctime>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unistd.h>
#include <vector>

#include "net/event_loop.h"
#include "net/timer_wheel.h"
#include "util/ensure.h"

namespace cbc::net {
namespace {

// ---------- TimerWheel ----------

TEST(TimerWheel, FiresInDeadlineOrderWithSubmissionTiebreak) {
  TimerWheel wheel({.granularity_us = 100, .slot_count = 8});
  std::vector<int> fired;
  wheel.schedule_at(500, [&] { fired.push_back(1); });
  wheel.schedule_at(200, [&] { fired.push_back(2); });
  wheel.schedule_at(500, [&] { fired.push_back(3); });  // same due as #1
  EXPECT_EQ(wheel.size(), 3u);
  EXPECT_EQ(wheel.advance(1000), 3u);
  // Due order first; equal deadlines fire in submission order.
  EXPECT_EQ(fired, (std::vector<int>{2, 1, 3}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, LaterRevolutionEntriesDoNotFireEarly) {
  // slot_count * granularity = 800us per revolution; an entry 3 revolutions
  // out hashes into an early slot but must wait for its real deadline.
  TimerWheel wheel({.granularity_us = 100, .slot_count = 8});
  int fired = 0;
  wheel.schedule_at(2500, [&] { fired += 1; });
  EXPECT_EQ(wheel.advance(800), 0u);
  EXPECT_EQ(wheel.advance(1600), 0u);
  EXPECT_EQ(wheel.advance(2400), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(wheel.advance(2500), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, AdvanceAcrossManyRevolutionsFiresEverything) {
  TimerWheel wheel({.granularity_us = 10, .slot_count = 4});
  std::vector<int> fired;
  for (int i = 0; i < 50; ++i) {
    wheel.schedule_at(i * 37, [&fired, i] { fired.push_back(i); });
  }
  // One giant jump far past every deadline: every entry fires, in order.
  EXPECT_EQ(wheel.advance(1'000'000), 50u);
  ASSERT_EQ(fired.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(fired[i], i);
  }
}

TEST(TimerWheel, NextDueHintNeverLaterThanTrueDeadline) {
  TimerWheel wheel({.granularity_us = 100, .slot_count = 8});
  EXPECT_FALSE(wheel.next_due_hint().has_value());
  wheel.schedule_at(950, [] {});
  const auto hint = wheel.next_due_hint();
  ASSERT_TRUE(hint.has_value());
  // The hint may be conservative (early) but must never overshoot — an
  // overshoot would make the loop sleep past a due timer.
  EXPECT_LE(*hint, 950);
  EXPECT_EQ(wheel.advance(*hint), *hint >= 950 ? 1u : 0u);
}

TEST(TimerWheel, ScheduledDuringFireRunsOnNextAdvance) {
  TimerWheel wheel({.granularity_us = 100, .slot_count = 8});
  int chained = 0;
  wheel.schedule_at(100, [&] {
    wheel.schedule_at(200, [&] { chained += 1; });
  });
  wheel.advance(100);
  EXPECT_EQ(chained, 0);
  wheel.advance(200);
  EXPECT_EQ(chained, 1);
}

// ---------- EventLoop (both backends) ----------

class EventLoopTest : public ::testing::TestWithParam<bool> {
 protected:
  EventLoop::Options options() const {
    return {.force_poll = GetParam(), .wheel = {}};
  }
};

TEST_P(EventLoopTest, BackendMatchesRequest) {
  EventLoop loop(options());
  if (GetParam()) {
    EXPECT_FALSE(loop.uses_epoll());
  }
  // Without force_poll the backend is epoll where available (Linux CI);
  // either way the rest of this suite must pass identically.
}

TEST_P(EventLoopTest, PostedTaskRunsAndStopExits) {
  EventLoop loop(options());
  bool ran = false;
  loop.post([&] {
    ran = true;
    loop.stop();
  });
  loop.run();  // returns only because the posted task stopped it
  EXPECT_TRUE(ran);
}

TEST_P(EventLoopTest, TimersFireInDeadlineOrder) {
  EventLoop loop(options());
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

TEST_P(EventLoopTest, CrossThreadPostAndScheduleAreDelivered) {
  EventLoop loop(options());
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

TEST_P(EventLoopTest, FdReadabilityDispatchesHandler) {
  EventLoop loop(options());
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

TEST_P(EventLoopTest, RemoveFdStopsDispatch) {
  EventLoop loop(options());
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

TEST_P(EventLoopTest, NowUsAdvancesMonotonically) {
  EventLoop loop(options());
  const SimTime a = loop.now_us();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const SimTime b = loop.now_us();
  EXPECT_GE(b - a, 1'000);
}

TEST_P(EventLoopTest, InLoopThreadIsAccurate) {
  EventLoop loop(options());
  EXPECT_FALSE(loop.in_loop_thread());
  bool inside = false;
  loop.post([&] {
    inside = loop.in_loop_thread();
    loop.stop();
  });
  loop.run();
  EXPECT_TRUE(inside);
}

TEST_P(EventLoopTest, ThrowingCallbackLeavesTheLoopIdleAndRerunnable) {
  // An exception from a callback leaves run() through the stack; the loop
  // must end up idle (its destructor asserts that) and run again.
  EventLoop loop(options());
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

TEST_P(EventLoopTest, LoopThreadPostRunsPromptlyWithoutAWakeupWrite) {
  // No timer is armed, so nothing but the pending task itself may keep
  // the loop from blocking for its one-second backstop. The first task
  // is posted before run() and wakes the loop; the second, posted from
  // the first, runs one iteration later, after that wakeup is drained.
  EventLoop loop(options());
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

// The timer tests below keep every deadline inside the wheel's horizon
// (slot_count × granularity = 102.4 ms by default), where its
// next-deadline hint is exact: a farther timer would surface as an
// earlier bound and wake the loop on its own.

TEST_P(EventLoopTest, TimerArmedBeforeTheHeldDeadlineFiresOnTime) {
  EventLoop loop(options());
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

TEST_P(EventLoopTest, TimerArmedRightAfterTheTimerFiresFiresOnTime) {
  // No other timer: a timer source left believing it still held a
  // deadline would sleep until the loop's one-second backstop.
  EventLoop loop(options());
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

TEST_P(EventLoopTest, TimerSourceIsReArmedOnlyWhenTheDeadlineMoves) {
  EventLoop loop(options());
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
  // epoll: armed once for the 90 ms deadline however often the loop woke.
  EXPECT_EQ(rearms_at_fire, loop.uses_epoll() ? 1u : 0u);
}

TEST_P(EventLoopTest, LoopBlocksOnceItsLastTimerHasFired) {
  // After the only timer fires the loop must sleep until the next event,
  // not spin on a timer source that still reads as ready.
  EventLoop loop(options());
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

INSTANTIATE_TEST_SUITE_P(Backends, EventLoopTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "poll" : "epoll";
                         });

}  // namespace
}  // namespace cbc::net
