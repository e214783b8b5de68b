// TempDir — a fresh directory under /tmp for one test's artifacts.
//
// The directory is removed with everything in it when the TempDir goes
// out of scope, unless the running test has failed: then it stays, and
// its path goes to stderr, so the reports, rings and checkpoints of the
// failing run can be read afterwards.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <system_error>

#include "util/ensure.h"

namespace cbc::testkit {

class TempDir {
 public:
  /// Creates `<prefix>XXXXXX` with mkdtemp, e.g. "/tmp/cbc_cluster_".
  explicit TempDir(const std::string& prefix) : path_(prefix + "XXXXXX") {
    require(::mkdtemp(path_.data()) != nullptr, "TempDir: mkdtemp failed");
  }
  ~TempDir() {
    if (::testing::Test::HasFailure()) {
      std::cerr << "kept the failing test's directory " << path_ << "\n";
      return;
    }
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace cbc::testkit
