// A test fixture that runs each of its tests once per SHA-256 block function:
// the portable one everywhere, and the x86 SHA-extensions one where this CPU has
// it. On a CPU without them the accelerated run is skipped with the name of the
// missing CPUID feature, so a test log shows which path ran.
//
//   using MyTest = testutil::BlockPathTest;
//   TEST_P(MyTest, Vector) { ... }
//   GLOBE_INSTANTIATE_BLOCK_PATHS(MyTest);

#ifndef TESTS_BLOCK_PATH_TEST_H_
#define TESTS_BLOCK_PATH_TEST_H_

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "src/util/sha256_internal.h"

namespace globe::testutil {

enum class BlockPath { kPortable, kAccelerated };

class BlockPathTest : public ::testing::TestWithParam<BlockPath> {
 protected:
  void SetUp() override {
    sha256_internal::BlockFunction fn = sha256_internal::CompressPortable;
    if (GetParam() == BlockPath::kAccelerated) {
      fn = sha256_internal::AcceleratedBlockFunction();
      if (fn == nullptr) {
        GTEST_SKIP() << "CPU lacks " << sha256_internal::MissingCpuFeature();
      }
    }
    use_.emplace(fn);
  }

 private:
  std::optional<sha256_internal::ScopedBlockFunction> use_;
};

inline std::string BlockPathName(const ::testing::TestParamInfo<BlockPath>& info) {
  return info.param == BlockPath::kPortable ? "Portable" : "Accelerated";
}

}  // namespace globe::testutil

#define GLOBE_INSTANTIATE_BLOCK_PATHS(suite)                                            \
  INSTANTIATE_TEST_SUITE_P(BlockPaths, suite,                                           \
                           ::testing::Values(::globe::testutil::BlockPath::kPortable,   \
                                             ::globe::testutil::BlockPath::kAccelerated), \
                           ::globe::testutil::BlockPathName)

#endif  // TESTS_BLOCK_PATH_TEST_H_
