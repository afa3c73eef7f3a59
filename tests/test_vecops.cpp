// Tests for tensor/vecops.
#include "tensor/vecops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace gcs {
namespace {

TEST(VecOps, Axpy) {
  std::vector<float> x{1.0f, 2.0f}, y{10.0f, 20.0f};
  axpy(2.0f, x, y);
  EXPECT_EQ(y[0], 12.0f);
  EXPECT_EQ(y[1], 24.0f);
}

TEST(VecOps, Scale) {
  std::vector<float> x{2.0f, -4.0f};
  scale(x, 0.5f);
  EXPECT_EQ(x[0], 1.0f);
  EXPECT_EQ(x[1], -2.0f);
}

TEST(VecOps, DotAndNorms) {
  std::vector<float> a{3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(squared_norm(a), 25.0);
  EXPECT_DOUBLE_EQ(norm(a), 5.0);
}

TEST(VecOps, AddSub) {
  std::vector<float> a{1.0f, 2.0f}, b{3.0f, 5.0f}, out(2);
  add(a, b, out);
  EXPECT_EQ(out[1], 7.0f);
  sub(b, a, out);
  EXPECT_EQ(out[1], 3.0f);
}

}  // namespace
}  // namespace gcs
