#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/lrn.hpp"
#include "nn/pool.hpp"
#include "nn/scale.hpp"
#include "tensor/gradcheck.hpp"

namespace mpcnn::nn {
namespace {

// Scalar probe loss: sum of c_i * out_i with fixed random c, so the
// analytic input gradient is backward(c).
struct Probe {
  Tensor coeffs;

  explicit Probe(const Shape& out_shape, std::uint64_t seed) : coeffs(out_shape) {
    Rng rng(seed);
    coeffs.fill_uniform(rng, -1.0f, 1.0f);
  }

  float loss(const Tensor& out) const {
    float acc = 0.0f;
    for (Dim i = 0; i < out.numel(); ++i) acc += coeffs[i] * out[i];
    return acc;
  }
};

void check_input_gradient(Layer& layer, const Tensor& input, float tol,
                          bool training = true) {
  layer.set_training(training);
  const Tensor out = layer.forward(input);
  Probe probe(out.shape(), 99);
  const Tensor analytic = layer.backward(probe.coeffs);
  const Tensor numeric = numeric_gradient(
      [&](const Tensor& x) { return probe.loss(layer.forward(x)); }, input);
  EXPECT_LT(max_relative_error(analytic, numeric), tol);
}

void check_param_gradients(Layer& layer, const Tensor& input, float tol) {
  layer.set_training(true);
  for (std::size_t pi = 0; pi < layer.params().size(); ++pi) {
    const Tensor out = layer.forward(input);
    Probe probe(out.shape(), 1234 + pi);
    for (Param* p : layer.params()) p->grad.fill(0.0f);
    (void)layer.backward(probe.coeffs);
    Param* param = layer.params()[pi];
    const Tensor analytic = param->grad;
    const Tensor numeric = numeric_gradient(
        [&](const Tensor& w) {
          const Tensor saved = param->value;
          param->value = w;
          const float loss = probe.loss(layer.forward(input));
          param->value = saved;
          return loss;
        },
        param->value);
    EXPECT_LT(max_relative_error(analytic, numeric), tol)
        << "param " << param->name;
  }
}

Tensor random_input(const Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

// ---------------------------------------------------------------- Conv2D

TEST(Conv2D, OutputShapeAndMacs) {
  Conv2D conv(3, 8, 3, 1, 1);
  const Shape in{2, 3, 16, 16};
  EXPECT_EQ(conv.output_shape(in), Shape({2, 8, 16, 16}));
  EXPECT_EQ(conv.macs(in), 8 * 27 * 256);
  EXPECT_EQ(conv.name(), "3x3-conv-8");
}

TEST(Conv2D, IdentityKernelPassesThrough) {
  Conv2D conv(1, 1, 1, 1, 0, /*bias=*/false);
  conv.weight().value[0] = 1.0f;
  const Tensor in = random_input(Shape{1, 1, 4, 4}, 3);
  const Tensor out = conv.forward(in);
  for (Dim i = 0; i < in.numel(); ++i) EXPECT_FLOAT_EQ(out[i], in[i]);
}

TEST(Conv2D, KnownSum) {
  // All-ones 3x3 kernel over all-ones input, no pad: every output is 9.
  Conv2D conv(1, 1, 3, 1, 0, /*bias=*/false);
  conv.weight().value.fill(1.0f);
  Tensor in(Shape{1, 1, 5, 5});
  in.fill(1.0f);
  const Tensor out = conv.forward(in);
  EXPECT_EQ(out.shape(), Shape({1, 1, 3, 3}));
  for (Dim i = 0; i < out.numel(); ++i) EXPECT_FLOAT_EQ(out[i], 9.0f);
}

TEST(Conv2D, BiasIsAddedPerChannel) {
  Conv2D conv(1, 2, 1, 1, 0);
  conv.weight().value.fill(0.0f);
  conv.bias().value[0] = 1.5f;
  conv.bias().value[1] = -2.0f;
  Tensor in(Shape{1, 1, 2, 2});
  const Tensor out = conv.forward(in);
  EXPECT_FLOAT_EQ(out[0], 1.5f);
  EXPECT_FLOAT_EQ(out[4], -2.0f);
}

TEST(Conv2D, GradientsMatchNumeric) {
  Conv2D conv(2, 3, 3, 2, 1);
  Rng rng(5);
  conv.init(rng);
  const Tensor in = random_input(Shape{2, 2, 6, 6}, 7);
  check_input_gradient(conv, in, 2e-2f);
  check_param_gradients(conv, in, 2e-2f);
}

// A 1x1 stride-1 unpadded conv reads its input map as the patch matrix,
// in backward as in forward.
TEST(Conv2D, PointwiseGradientsMatchNumeric) {
  Conv2D conv(3, 4, 1);
  Rng rng(6);
  conv.init(rng);
  const Tensor in = random_input(Shape{2, 3, 5, 5}, 8);
  check_input_gradient(conv, in, 2e-2f);
  check_param_gradients(conv, in, 2e-2f);
}

TEST(Conv2D, RejectsChannelMismatch) {
  Conv2D conv(3, 4, 3);
  EXPECT_THROW(conv.forward(Tensor(Shape{1, 2, 8, 8})), Error);
}

// ----------------------------------------------------------------- Dense

TEST(Dense, KnownProduct) {
  Dense dense(2, 2);
  dense.weight().value = Tensor(Shape{2, 2}, {1, 2, 3, 4});
  dense.bias().value = Tensor(Shape{2}, {10, 20});
  const Tensor in(Shape{1, 2}, {1, 1});
  const Tensor out = dense.forward(in);
  EXPECT_FLOAT_EQ(out[0], 13.0f);
  EXPECT_FLOAT_EQ(out[1], 27.0f);
}

TEST(Dense, FlattensHigherRankInputs) {
  Dense dense(8, 3);
  Rng rng(5);
  dense.init(rng);
  const Tensor in = random_input(Shape{2, 2, 2, 2}, 9);
  const Tensor out = dense.forward(in);
  EXPECT_EQ(out.shape(), Shape({2, 3}));
  // Gradient restores the original rank.
  Tensor go(Shape{2, 3});
  go.fill(1.0f);
  EXPECT_EQ(dense.backward(go).shape(), in.shape());
}

TEST(Dense, GradientsMatchNumeric) {
  Dense dense(6, 4);
  Rng rng(11);
  dense.init(rng);
  const Tensor in = random_input(Shape{3, 6}, 13);
  check_input_gradient(dense, in, 1e-2f);
  check_param_gradients(dense, in, 1e-2f);
}

// ----------------------------------------------------------------- Pools

TEST(Pool2D, MaxPoolKnownValues) {
  Pool2D pool(PoolMode::kMax, 2, 2);
  Tensor in(Shape{1, 1, 4, 4},
            {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  const Tensor out = pool.forward(in);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out[0], 6.0f);
  EXPECT_FLOAT_EQ(out[3], 16.0f);
}

TEST(Pool2D, CeilModeMatchesCaffe) {
  // 3x3/s2 over 32x32 → 16x16 (Caffe ceil semantics, §Table III nets).
  Pool2D pool(PoolMode::kMax, 3, 2);
  EXPECT_EQ(pool.output_shape(Shape{1, 1, 32, 32}), Shape({1, 1, 16, 16}));
}

TEST(Pool2D, MaxBackwardRoutesToArgmax) {
  Pool2D pool(PoolMode::kMax, 2, 2);
  Tensor in(Shape{1, 1, 2, 2}, {1, 9, 3, 4});
  (void)pool.forward(in);
  Tensor go(Shape{1, 1, 1, 1}, {5});
  const Tensor gi = pool.backward(go);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 5.0f);
}

TEST(Pool2D, AveragePoolKnownValues) {
  Pool2D pool(PoolMode::kAverage, 2, 2);
  Tensor in(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor out = pool.forward(in);
  EXPECT_FLOAT_EQ(out[0], 2.5f);
}

TEST(Pool2D, ClippedWindowAveragesOverActualCount) {
  // 3x3/s2 over a 5x5 of ones: edge windows are clipped but the average
  // must remain 1.
  Pool2D pool(PoolMode::kAverage, 3, 2);
  Tensor in(Shape{1, 1, 5, 5});
  in.fill(1.0f);
  const Tensor out = pool.forward(in);
  for (Dim i = 0; i < out.numel(); ++i) EXPECT_FLOAT_EQ(out[i], 1.0f);
}

TEST(Pool2D, GradientsMatchNumeric) {
  Pool2D maxpool(PoolMode::kMax, 2, 2);
  Pool2D avgpool(PoolMode::kAverage, 3, 2);
  const Tensor in = random_input(Shape{2, 2, 6, 6}, 21);
  check_input_gradient(maxpool, in, 1e-2f);
  check_input_gradient(avgpool, in, 1e-2f);
}

TEST(GlobalAvgPool, ForwardAndGradient) {
  GlobalAvgPool pool;
  Tensor in(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor out = pool.forward(in);
  EXPECT_EQ(out.shape(), Shape({1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(out[0], 2.5f);
  EXPECT_FLOAT_EQ(out[1], 25.0f);
  const Tensor in2 = random_input(Shape{2, 3, 4, 4}, 23);
  check_input_gradient(pool, in2, 1e-2f);
}

// ----------------------------------------------------- Pointwise layers

TEST(ReLU, ForwardAndGradient) {
  ReLU relu;
  Tensor in(Shape{1, 4}, {-1, 0, 2, -3});
  const Tensor out = relu.forward(in);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  Tensor go(Shape{1, 4}, {1, 1, 1, 1});
  const Tensor gi = relu.backward(go);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[2], 1.0f);
}

TEST(Scale, ForwardBackward) {
  Scale scale(0.25f);
  Tensor in(Shape{2}, {4, 8});
  const Tensor out = scale.forward(in);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  Tensor go(Shape{2}, {1, 1});
  EXPECT_FLOAT_EQ(scale.backward(go)[0], 0.25f);
  EXPECT_THROW(Scale(-1.0f), Error);
}

TEST(Flatten, RoundTrip) {
  Flatten flatten;
  const Tensor in = random_input(Shape{2, 3, 4, 4}, 31);
  const Tensor out = flatten.forward(in);
  EXPECT_EQ(out.shape(), Shape({2, 48}));
  EXPECT_EQ(flatten.backward(out).shape(), in.shape());
}

// -------------------------------------------------------------- LRN / BN

TEST(LRN, UnitInputKnownValue) {
  // With all activations equal to 1, the window sum is the window size, so
  // b = 1 / (k + alpha)^beta for interior channels.
  LRN lrn(3, 0.3f, 0.5f, 1.0f);
  Tensor in(Shape{1, 5, 1, 1});
  in.fill(1.0f);
  const Tensor out = lrn.forward(in);
  const float expected = 1.0f / std::sqrt(1.0f + 0.3f);
  EXPECT_NEAR(out[2], expected, 1e-5f);
}

TEST(LRN, GradientsMatchNumeric) {
  LRN lrn(3, 0.2f, 0.75f, 1.0f);
  const Tensor in = random_input(Shape{2, 5, 3, 3}, 37);
  check_input_gradient(lrn, in, 2e-2f);
}

TEST(BatchNorm, NormalisesTrainingBatch) {
  BatchNorm bn(3);
  bn.set_training(true);
  const Tensor in = random_input(Shape{8, 3, 4, 4}, 41);
  const Tensor out = bn.forward(in);
  // Per-channel mean ≈ 0 and variance ≈ 1 after normalisation.
  const Dim per = 4 * 4;
  for (Dim c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    for (Dim n = 0; n < 8; ++n)
      for (Dim i = 0; i < per; ++i) mean += out[(n * 3 + c) * per + i];
    mean /= 8 * per;
    for (Dim n = 0; n < 8; ++n)
      for (Dim i = 0; i < per; ++i) {
        const double d = out[(n * 3 + c) * per + i] - mean;
        var += d * d;
      }
    var /= 8 * per;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm bn(1, /*momentum=*/0.0f);  // running stats = last batch stats
  bn.set_training(true);
  Tensor in(Shape{4, 1}, {1, 2, 3, 4});
  (void)bn.forward(in);
  bn.set_training(false);
  Tensor probe(Shape{1, 1}, {2.5f});  // the batch mean
  EXPECT_NEAR(bn.forward(probe)[0], 0.0f, 1e-4f);
}

TEST(BatchNorm, GradientsMatchNumeric) {
  BatchNorm bn(4);
  const Tensor in = random_input(Shape{6, 4}, 43);
  check_input_gradient(bn, in, 2e-2f);
  check_param_gradients(bn, in, 2e-2f);
}

// --------------------------------------------------------------- Dropout

TEST(Dropout, EvalModeIsIdentity) {
  Dropout dropout(0.5f);
  dropout.set_training(false);
  const Tensor in = random_input(Shape{1, 100}, 59);
  const Tensor out = dropout.forward(in);
  for (Dim i = 0; i < in.numel(); ++i) EXPECT_FLOAT_EQ(out[i], in[i]);
}

TEST(Dropout, TrainModeDropsAndRescales) {
  Dropout dropout(0.4f, 77);
  dropout.set_training(true);
  Tensor in(Shape{1, 10000});
  in.fill(1.0f);
  const Tensor out = dropout.forward(in);
  Dim zeros = 0;
  for (Dim i = 0; i < out.numel(); ++i) {
    if (out[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(out[i], 1.0f / 0.6f, 1e-5f);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.4, 0.03);
  // Expected value preserved (inverted dropout).
  EXPECT_NEAR(out.mean(), 1.0f, 0.05f);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout dropout(0.5f, 78);
  dropout.set_training(true);
  Tensor in(Shape{1, 64});
  in.fill(1.0f);
  const Tensor out = dropout.forward(in);
  Tensor go(Shape{1, 64});
  go.fill(1.0f);
  const Tensor gi = dropout.backward(go);
  for (Dim i = 0; i < 64; ++i) {
    EXPECT_FLOAT_EQ(gi[i], out[i]);  // both are mask/(1-p)
  }
}

TEST(Dropout, RejectsBadRate) {
  EXPECT_THROW(Dropout(1.0f), Error);
  EXPECT_THROW(Dropout(-0.1f), Error);
}

}  // namespace
}  // namespace mpcnn::nn
