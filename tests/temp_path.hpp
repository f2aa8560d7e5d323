// Per-test scratch file paths.  ctest runs every TEST as its own process
// (gtest_discover_tests), several at once under `ctest -j`, so a fixed
// file name under ::testing::TempDir() would be shared by concurrent
// tests; deriving it from the running test's name keeps them apart.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

/// ::testing::TempDir() + "<suite>.<test><suffix>" for the running test,
/// with the '/' of parameterized names replaced by '_'.
inline std::string testTempPath(std::string_view suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + name + std::string(suffix);
}
