#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/gradcheck.hpp"

namespace mpcnn::nn {
namespace {

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy loss;
  Tensor logits(Shape{2, 4});  // all zero → uniform softmax
  const float value = loss.forward(logits, {0, 3});
  EXPECT_NEAR(value, std::log(4.0f), 1e-5f);
}

TEST(SoftmaxCrossEntropy, PerfectPredictionNearZeroLoss) {
  SoftmaxCrossEntropy loss;
  Tensor logits(Shape{1, 3}, {50.0f, 0.0f, 0.0f});
  EXPECT_NEAR(loss.forward(logits, {0}), 0.0f, 1e-4f);
}

TEST(SoftmaxCrossEntropy, GradientIsProbMinusOneHotOverN) {
  SoftmaxCrossEntropy loss;
  Tensor logits(Shape{2, 2}, {0.0f, 0.0f, 1.0f, -1.0f});
  (void)loss.forward(logits, {1, 0});
  const Tensor grad = loss.backward();
  EXPECT_NEAR(grad[0], 0.25f, 1e-5f);        // (0.5 - 0) / 2
  EXPECT_NEAR(grad[1], -0.25f, 1e-5f);       // (0.5 - 1) / 2
  const float p0 = 1.0f / (1.0f + std::exp(-2.0f));
  EXPECT_NEAR(grad[2], (p0 - 1.0f) / 2.0f, 1e-5f);
}

TEST(SoftmaxCrossEntropy, GradientMatchesNumeric) {
  SoftmaxCrossEntropy loss;
  Rng rng(3);
  Tensor logits(Shape{4, 5});
  logits.fill_uniform(rng, -2.0f, 2.0f);
  const std::vector<int> labels = {0, 2, 4, 1};
  (void)loss.forward(logits, labels);
  const Tensor analytic = loss.backward();
  const Tensor numeric = numeric_gradient(
      [&](const Tensor& x) {
        SoftmaxCrossEntropy probe;
        return probe.forward(x, labels);
      },
      logits);
  EXPECT_LT(max_relative_error(analytic, numeric), 1e-2f);
}

TEST(SoftmaxCrossEntropy, RejectsBadLabels) {
  SoftmaxCrossEntropy loss;
  Tensor logits(Shape{1, 3});
  EXPECT_THROW(loss.forward(logits, {3}), Error);
  EXPECT_THROW(loss.forward(logits, {0, 1}), Error);
}

}  // namespace
}  // namespace mpcnn::nn
