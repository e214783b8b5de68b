// Runs a net::EventLoop on its own thread for a test body that runs on
// the main thread: the real-concurrency shape of a node, with the loop
// thread delivering while another thread submits.
#pragma once

#include <thread>

#include "net/event_loop.h"

namespace cbc::testkit {

/// Starts `loop` on a worker thread and returns once it is running;
/// always stops and joins on destruction. Declare it after everything the
/// loop's handlers touch, so the loop is stopped before they are torn down.
class LoopRunner {
 public:
  explicit LoopRunner(net::EventLoop& loop)
      : loop_(loop), thread_([this] { loop_.run(); }) {
    // Wait until the loop is live, so a test exercises the running state
    // (the threading contract differs before run()).
    while (!loop_.running()) {
      std::this_thread::yield();
    }
  }
  ~LoopRunner() {
    loop_.stop();
    thread_.join();
  }

  LoopRunner(const LoopRunner&) = delete;
  LoopRunner& operator=(const LoopRunner&) = delete;

 private:
  net::EventLoop& loop_;
  std::thread thread_;
};

}  // namespace cbc::testkit
