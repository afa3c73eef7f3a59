// gcs_tests entry point: GoogleTest's own flags plus one test-only flag.
//
//   --poison-scratch  runs with core::set_scratch_poisoning_for_testing:
//                     every codec fills the round scratch it lends with a
//                     NaN pattern, so a suite that still passes proves no
//                     session reads scratch it did not write that round.
//                     ctest runs the bit-identity suites this way too
//                     (gcs_tests_poisoned in CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdio>
#include <string_view>

#include "core/codec.h"

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--poison-scratch") {
      gcs::core::set_scratch_poisoning_for_testing(true);
      continue;
    }
    std::fprintf(stderr, "gcs_tests: unknown flag %s\n", argv[i]);
    return 1;
  }
  return RUN_ALL_TESTS();
}
