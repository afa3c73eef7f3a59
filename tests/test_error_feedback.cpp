// Tests for core/error_feedback: compensation and memory semantics.
#include "core/error_feedback.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/check.h"

namespace gcs::core {
namespace {

TEST(ErrorFeedback, DisabledIsPassThrough) {
  ErrorFeedback ef(2, 3, /*enabled=*/false);
  const std::vector<float> grad{1.0f, 2.0f, 3.0f};
  std::vector<float> y(3);
  ef.compensate(0, grad, y);
  EXPECT_EQ(y, grad);
  EXPECT_FALSE(ef.enabled());
  // There is no memory to absorb into: callers check enabled() first.
  EXPECT_THROW((void)ef.absorb_unsent(0, y), std::logic_error);
}

TEST(ErrorFeedback, MemoryStartsZero) {
  ErrorFeedback ef(1, 2, true);
  const std::vector<float> grad{5.0f, -1.0f};
  std::vector<float> y(2);
  ef.compensate(0, grad, y);
  EXPECT_EQ(y, grad);
}

TEST(ErrorFeedback, ResidualWrittenInPlaceIsAddedBack) {
  // A scheme that fuses its residual into its own decode pass (PowerSGD)
  // writes m' = y - sent straight into the memory.
  ErrorFeedback ef(1, 2, true);
  const std::vector<float> y{4.0f, 2.0f};
  const std::vector<float> sent{3.0f, 2.0f};
  auto residual = ef.mutable_memory(0);
  for (std::size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - sent[i];
  const auto mem = ef.memory(0);
  EXPECT_EQ(mem[0], 1.0f);
  EXPECT_EQ(mem[1], 0.0f);

  // Next round: memory is added back.
  const std::vector<float> grad{10.0f, 10.0f};
  std::vector<float> y2(2);
  ef.compensate(0, grad, y2);
  EXPECT_EQ(y2[0], 11.0f);
  EXPECT_EQ(y2[1], 10.0f);
}

TEST(ErrorFeedback, AbsorbByExceptionKeepsUnsent) {
  // The sparse schemes' absorb: m = y, then the caller zeroes what it
  // sent (here coordinates 0 and 2).
  ErrorFeedback ef(1, 4, true);
  const std::vector<float> y{1.0f, 2.0f, 3.0f, 4.0f};
  const auto memory = ef.absorb_unsent(0, y);
  memory[0] = 0.0f;
  memory[2] = 0.0f;
  const auto mem = ef.memory(0);
  EXPECT_EQ(mem[0], 0.0f);
  EXPECT_EQ(mem[1], 2.0f);
  EXPECT_EQ(mem[2], 0.0f);
  EXPECT_EQ(mem[3], 4.0f);
}

TEST(ErrorFeedback, WorkersAreIndependent) {
  ErrorFeedback ef(2, 1, true);
  (void)ef.absorb_unsent(0, std::vector<float>{7.0f});
  EXPECT_EQ(ef.memory(0)[0], 7.0f);
  EXPECT_EQ(ef.memory(1)[0], 0.0f);
}

TEST(ErrorFeedback, ResetClears) {
  ErrorFeedback ef(1, 1, true);
  (void)ef.absorb_unsent(0, std::vector<float>{3.0f});
  ef.reset();
  EXPECT_EQ(ef.memory(0)[0], 0.0f);
}

TEST(ErrorFeedback, EnergyIsConserved) {
  // Over two rounds where nothing is transmitted, the memory accumulates
  // the full gradient sum (no leakage).
  ErrorFeedback ef(1, 2, true);
  std::vector<float> y(2);
  ef.compensate(0, std::vector<float>{1.0f, 2.0f}, y);
  (void)ef.absorb_unsent(0, y);
  ef.compensate(0, std::vector<float>{1.0f, 2.0f}, y);
  EXPECT_EQ(y[0], 2.0f);
  EXPECT_EQ(y[1], 4.0f);
}

TEST(ErrorFeedback, SizeMismatchThrows) {
  ErrorFeedback ef(1, 3, true);
  std::vector<float> y(2);
  EXPECT_THROW(ef.compensate(0, std::vector<float>{1.0f}, y),
               std::logic_error);
  EXPECT_THROW((void)ef.absorb_unsent(0, y), std::logic_error);
}

TEST(ErrorFeedback, RemapCarriesSurvivorRowsBitExact) {
  // The elastic carry-over primitive: the shrunken bank's row i is the
  // old bank's row survivors[i], byte for byte, and the dropped worker's
  // residual is gone.
  ErrorFeedback ef(4, 3, true);
  std::vector<float> y(3);
  for (int w = 0; w < 4; ++w) {
    const std::vector<float> grad{0.5f * static_cast<float>(w + 1),
                                  -1.25f * static_cast<float>(w),
                                  3.75f};
    ef.compensate(w, grad, y);
    (void)ef.absorb_unsent(w, y);  // memory = y (nothing transmitted)
  }
  const std::vector<int> survivors{0, 1, 3};
  const ErrorFeedback remapped = ef.remap(survivors);
  EXPECT_TRUE(remapped.enabled());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    const auto original = ef.memory(survivors[i]);
    const auto carried = remapped.memory(static_cast<int>(i));
    ASSERT_EQ(carried.size(), original.size());
    EXPECT_EQ(std::memcmp(carried.data(), original.data(),
                          carried.size() * sizeof(float)),
              0)
        << "worker " << survivors[i];
  }
}

TEST(ErrorFeedback, RemapOfDisabledStaysDisabled) {
  ErrorFeedback ef(3, 2, /*enabled=*/false);
  const std::vector<int> survivors{0, 2};
  const ErrorFeedback remapped = ef.remap(survivors);
  EXPECT_FALSE(remapped.enabled());
  const std::vector<float> grad{1.0f, 2.0f};
  std::vector<float> y(2);
  remapped.compensate(1, grad, y);
  EXPECT_EQ(y, grad);
}

TEST(ErrorFeedback, RemapRejectsBadSurvivorSets) {
  // Shares check_survivor_set with the codecs' remap_workers — same
  // rules, same gcs::Error, one place to change them.
  ErrorFeedback ef(3, 2, true);
  EXPECT_THROW((void)ef.remap(std::vector<int>{}), Error);
  EXPECT_THROW((void)ef.remap(std::vector<int>{3}), Error);
  EXPECT_THROW((void)ef.remap(std::vector<int>{1, 0}), Error);
  EXPECT_THROW((void)ef.remap(std::vector<int>{1, 1}), Error);
}

}  // namespace
}  // namespace gcs::core
