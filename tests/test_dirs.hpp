#pragma once
// Per-test scratch directories. ctest runs every test as its own process,
// in parallel under `ctest -j`, so a directory named only by a fixed tag
// collides whenever two tests (or two runs of one test) share the tag. The
// directory here is unique to the running test and process.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

namespace syseco {

/// Directories handed out by uniqueTestDir in this process. They are
/// removed at exit when every test passed; a failing run keeps them for
/// inspection. A forked child that exits normally removes nothing.
inline std::vector<std::string>& uniqueTestDirs() {
  static std::vector<std::string> dirs;
  static const pid_t owner = ::getpid();
  static const bool registered = [] {
    std::atexit([] {
      if (::getpid() != owner ||
          !::testing::UnitTest::GetInstance()->Passed())
        return;
      for (const std::string& d : uniqueTestDirs()) {
        const std::string cmd = "rm -rf '" + d + "'";
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
      }
    });
    return true;
  }();
  (void)registered;
  return dirs;
}

/// <TempDir>/syseco_<prefix>_<name>_<Suite.Test>_<pid>, removed first so a
/// leftover from an earlier run never leaks in. Not created.
inline std::string uniqueTestDir(const std::string& prefix,
                                 const std::string& name) {
  std::string test = "none";
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info())
    test = std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : test)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && c != '-')
      c = '_';
  const std::string dir = ::testing::TempDir() + "syseco_" + prefix + "_" +
                          name + "_" + test + "_" +
                          std::to_string(::getpid());
  const std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
  uniqueTestDirs().push_back(dir);
  return dir;
}

}  // namespace syseco
