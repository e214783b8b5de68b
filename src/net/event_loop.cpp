#include "net/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "util/ensure.h"

namespace cbc::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ensure(flags >= 0, "EventLoop: fcntl(F_GETFL) failed");
  ensure(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
         "EventLoop: fcntl(F_SETFL, O_NONBLOCK) failed");
}

void watch_readable(int epoll_fd, int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  ensure(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0,
         "EventLoop: epoll_ctl(ADD) failed");
}

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

EventLoop::EventLoop(Options options)
    : epoch_(std::chrono::steady_clock::now()) {
  require(!options.force_poll,
          "EventLoop: there is no poll backend; force_poll must be false");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  ensure(epoll_fd_ >= 0, "EventLoop: epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  ensure(wake_fd_ >= 0, "EventLoop: eventfd failed");
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  ensure(timer_fd_ >= 0, "EventLoop: timerfd_create failed");
  watch_readable(epoll_fd_, wake_fd_);
  watch_readable(epoll_fd_, timer_fd_);
}

EventLoop::~EventLoop() {
  ensure(!running(), "EventLoop destroyed while running");
  close_if_open(timer_fd_);
  close_if_open(wake_fd_);
  close_if_open(epoll_fd_);
}

std::size_t EventLoop::watch_index(int fd) const {
  for (std::size_t i = 0; i < watches_.size(); ++i) {
    if (watches_[i].fd == fd) {
      return i;
    }
  }
  return watches_.size();
}

void EventLoop::add_fd(int fd, std::function<void()> on_readable) {
  require(fd >= 0, "EventLoop::add_fd: invalid fd");
  require(static_cast<bool>(on_readable), "EventLoop::add_fd: empty handler");
  assert_in_loop();
  require(watch_index(fd) == watches_.size(),
          "EventLoop::add_fd: fd already registered");
  set_nonblocking(fd);
  watch_readable(epoll_fd_, fd);
  watches_.push_back(Watch{fd, std::move(on_readable)});
}

void EventLoop::remove_fd(int fd) {
  assert_in_loop();
  const std::size_t i = watch_index(fd);
  require(i < watches_.size(), "EventLoop::remove_fd: fd not registered");
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  // Null the handler instead of erasing: dispatch may be mid-iteration
  // over watches_ (a handler removing its own or a sibling fd).
  watches_[i].fd = -1;
  watches_[i].on_readable = nullptr;
}

void EventLoop::post(std::function<void()> task) {
  require(static_cast<bool>(task), "EventLoop::post: empty task");
  {
    const LockGuard guard(pending_mutex_);
    pending_.push_back(std::move(task));
  }
  // The loop thread is awake by definition, and run() does not block
  // while a task is pending.
  if (!in_loop_thread()) {
    wake();
  }
}

void EventLoop::schedule(SimTime delay_us, std::function<void()> action) {
  require(static_cast<bool>(action), "EventLoop::schedule: empty action");
  if (delay_us < 0) {
    delay_us = 0;
  }
  const SimTime due = now_us() + delay_us;
  if (in_loop_thread()) {
    assert_in_loop();
    timers_.at(due, std::move(action));
    return;
  }
  // Cross-thread: marshal the arm itself onto the loop thread so the timer
  // queue stays loop-confined. The deadline is fixed here, not at drain
  // time; if the queue's clock has passed it by then, the timer fires at
  // the next advance.
  post([this, due, action = std::move(action)]() mutable {
    assert_in_loop();
    timers_.at(std::max(due, timers_.now()), std::move(action));
  });
}

SimTime EventLoop::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  // A saturated eventfd counter already guarantees a pending wakeup;
  // EAGAIN is fine.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  wakeup_writes_.fetch_add(1, std::memory_order_relaxed);
}

void EventLoop::drain_wakeup() {
  // One read empties an eventfd's counter.
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &count, sizeof(count));
}

bool EventLoop::has_posted_tasks() const {
  const LockGuard guard(pending_mutex_);
  return !pending_.empty();
}

void EventLoop::run_posted_tasks() {
  std::vector<std::function<void()>> tasks;
  {
    const LockGuard guard(pending_mutex_);
    tasks.swap(pending_);
  }
  for (auto& task : tasks) {
    task();
  }
}

void EventLoop::arm_timer_source() {
  // Unchanged deadline: the timerfd still holds it, so the loop wakes in
  // time without a syscall. Once it has expired it is set again whatever
  // the deadline: timerfd_settime also clears its readiness, which spares
  // reading it.
  const std::optional<SimTime> due = timers_.next_at();
  if (!timer_expired_ && due == timer_due_) {
    return;
  }
  itimerspec spec{};  // zeroed = disarm
  if (due.has_value()) {
    const SimTime wait_us = std::max<SimTime>(*due - now_us(), 1);
    spec.it_value.tv_sec = wait_us / 1'000'000;
    spec.it_value.tv_nsec = (wait_us % 1'000'000) * 1000;
  }
  ensure(::timerfd_settime(timer_fd_, 0, &spec, nullptr) == 0,
         "EventLoop: timerfd_settime failed");
  timer_rearms_.fetch_add(1, std::memory_order_relaxed);
  timer_due_ = due;
  timer_expired_ = false;
}

void EventLoop::dispatch_fd(int fd) {
  if (fd == wake_fd_) {
    drain_wakeup();
    return;
  }
  if (fd == timer_fd_) {
    // Not read: the next arm_timer_source() sets it again, which clears
    // the expiry, and the timer queue's advance at the top of the next
    // iteration fires the actions.
    timer_expired_ = true;
    return;
  }
  const std::size_t i = watch_index(fd);
  if (i < watches_.size() && watches_[i].on_readable) {
    watches_[i].on_readable();
  }
}

void EventLoop::run() {
  ensure(!running(), "EventLoop::run: already running");
  stop_requested_.store(false, std::memory_order_release);
  loop_thread_.store(std::this_thread::get_id());
  running_.store(true, std::memory_order_release);
  // Leaves the loop idle however run() exits: an exception from a
  // callback unwinds through here, and ~EventLoop must not then find it
  // still running.
  struct Idle {
    EventLoop& loop;
    ~Idle() {
      loop.running_.store(false, std::memory_order_release);
      loop.loop_thread_.store(std::thread::id{});
    }
  } idle{*this};
  assert_in_loop();  // run() IS the loop thread: claim the capability

  while (!stop_requested_.load(std::memory_order_acquire)) {
    run_posted_tasks();
    timers_.run_until(now_us());
    if (stop_requested_.load(std::memory_order_acquire)) {
      break;
    }
    // Compact tombstones left by remove_fd outside any dispatch iteration.
    std::erase_if(watches_, [](const Watch& w) { return w.fd < 0; });

    arm_timer_source();
    epoll_event events[64];
    // The timerfd wakes us at the next timer deadline and the eventfd on
    // a cross-thread post or stop, so the blocking timeout is just a
    // liveness backstop. A task posted from the loop thread (by a timer
    // action or another task) wrote no eventfd: poll, do not block.
    const int wait_ms = has_posted_tasks() ? 0 : 1000;
    const int n = ::epoll_wait(epoll_fd_, events,
                               static_cast<int>(std::size(events)), wait_ms);
    if (n < 0) {
      ensure(errno == EINTR, "EventLoop: epoll_wait failed");
      continue;
    }
    for (int i = 0; i < n; ++i) {
      dispatch_fd(events[i].data.fd);
    }
  }
}

void EventLoop::stop() {
  stop_requested_.store(true, std::memory_order_release);
  wake();
}

}  // namespace cbc::net
