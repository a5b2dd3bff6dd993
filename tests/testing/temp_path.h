#ifndef DMTL_TESTS_TESTING_TEMP_PATH_H_
#define DMTL_TESTS_TESTING_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace dmtl {

// A path under the system temp directory that belongs to the running test
// alone: `stem`, the test suite and test name, and the process id. ctest
// runs every test case as its own process, in parallel under -j, so a
// fixed name would let one case's cleanup delete another's files.
inline std::filesystem::path TestTempPath(const std::string& stem) {
  std::string name = stem;
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += std::string("_") + info->test_suite_name() + "_" + info->name();
  }
  name += "_" + std::to_string(::getpid());
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized test names contain '/'
  }
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace dmtl

#endif  // DMTL_TESTS_TESTING_TEMP_PATH_H_
