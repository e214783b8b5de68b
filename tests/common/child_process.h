// Child processes with a deadline: fork/exec a binary with its stderr
// captured to a file, and reap it within a bounded wait. A child still
// running at the deadline is SIGKILLed, so a hang fails the test instead
// of hanging it.
#pragma once

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/ensure.h"

namespace cbc::testkit {

/// Forks and execs args[0] with `args`, stderr redirected to
/// `stderr_path`.
inline pid_t spawn(std::vector<std::string> args,
                   const std::string& stderr_path) {
  const pid_t pid = ::fork();
  require(pid >= 0, "spawn: fork failed");
  if (pid == 0) {
    const int fd =
        ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);  // exec failed
  }
  return pid;
}

/// Waits up to `deadline_ms` for `pid` to exit and returns its exit
/// status; nullopt when it died by a signal or had to be SIGKILLed (and
/// reaped) at the deadline.
inline std::optional<int> wait_exit(pid_t pid, int deadline_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  int status = 0;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return std::nullopt;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!WIFEXITED(status)) {
    return std::nullopt;
  }
  return WEXITSTATUS(status);
}

[[nodiscard]] inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Occurrences of `needle` in `text`.
[[nodiscard]] inline std::size_t count_of(const std::string& text,
                                          const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

}  // namespace cbc::testkit
