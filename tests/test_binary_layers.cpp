#include "bnn/binary_layers.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bnn/bitpack.hpp"
#include "nn/conv.hpp"

namespace mpcnn::bnn {
namespace {

TEST(QuantizeInput, SnapsToLevels) {
  QuantizeInput quant(8);
  EXPECT_EQ(quant.levels(), 255);
  Tensor in(Shape{1, 4}, {0.0f, 1.0f, 0.5f, 1.7f});
  const Tensor out = quant.forward(in);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);
  EXPECT_NEAR(out[2], std::round(0.5f * 255.0f) / 255.0f, 1e-7f);
  EXPECT_FLOAT_EQ(out[3], 1.0f);  // clamped
}

TEST(QuantizeInput, LowBitQuantisation) {
  QuantizeInput quant(1);
  Tensor in(Shape{1, 3}, {0.2f, 0.7f, 0.5f});
  const Tensor out = quant.forward(in);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);
}

TEST(QuantizeInput, StraightThroughGradient) {
  QuantizeInput quant(8);
  Tensor go(Shape{1, 3}, {1, 2, 3});
  const Tensor gi = quant.backward(go);
  for (Dim i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(gi[i], go[i]);
}

TEST(BinActive, SignForward) {
  BinActive act;
  Tensor in(Shape{1, 4}, {-0.5f, 0.0f, 0.5f, -2.0f});
  const Tensor out = act.forward(in);
  EXPECT_FLOAT_EQ(out[0], -1.0f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);  // sign(0) = +1 convention
  EXPECT_FLOAT_EQ(out[2], 1.0f);
  EXPECT_FLOAT_EQ(out[3], -1.0f);
}

TEST(BinActive, ClippedStraightThroughBackward) {
  BinActive act;
  Tensor in(Shape{1, 4}, {-0.5f, 0.9f, 1.5f, -3.0f});
  (void)act.forward(in);
  Tensor go(Shape{1, 4}, {1, 1, 1, 1});
  const Tensor gi = act.backward(go);
  EXPECT_FLOAT_EQ(gi[0], 1.0f);  // |x| <= 1 passes
  EXPECT_FLOAT_EQ(gi[1], 1.0f);
  EXPECT_FLOAT_EQ(gi[2], 0.0f);  // |x| > 1 blocked
  EXPECT_FLOAT_EQ(gi[3], 0.0f);
}

TEST(BinConv2D, ForwardEqualsFloatConvWithSignWeights) {
  BinConv2D bin(2, 3, 3);
  Rng rng(3);
  bin.init(rng);

  nn::Conv2D ref(2, 3, 3, 1, 0, /*bias=*/false);
  for (Dim i = 0; i < ref.weight().value.numel(); ++i) {
    ref.weight().value[i] = sign_bit(bin.weight().value[i]) ? 1.0f : -1.0f;
  }
  Tensor in(Shape{2, 2, 6, 6});
  in.fill_uniform(rng, -1.0f, 1.0f);
  const Tensor a = bin.forward(in);
  const Tensor b = ref.forward(in);
  ASSERT_TRUE(a.same_shape(b));
  for (Dim i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], 1e-4f);
  }
}

// Backward against the float conv with the same ±1 weights, at kernel 3
// (an im2col patch matrix) and kernel 1 (the input map is its own patch
// matrix).
TEST(BinConv2D, BackwardEqualsFloatConvWithSignWeights) {
  for (const Dim k : {Dim{3}, Dim{1}}) {
    SCOPED_TRACE(k);
    BinConv2D bin(2, 3, k);
    Rng rng(4);
    bin.init(rng);
    nn::Conv2D ref(2, 3, k, 1, 0, /*bias=*/false);
    for (Dim i = 0; i < ref.weight().value.numel(); ++i) {
      ref.weight().value[i] = sign_bit(bin.weight().value[i]) ? 1.0f : -1.0f;
    }
    Tensor in(Shape{2, 2, 6, 6});
    in.fill_uniform(rng, -1.0f, 1.0f);
    const Tensor out = bin.forward(in);
    (void)ref.forward(in);
    Tensor grad_out(out.shape());
    grad_out.fill_uniform(rng, -1.0f, 1.0f);
    const Tensor a = bin.backward(grad_out);
    const Tensor b = ref.backward(grad_out);
    ASSERT_TRUE(a.same_shape(b));
    for (Dim i = 0; i < a.numel(); ++i) {
      ASSERT_NEAR(a[i], b[i], 1e-4f);
    }
    const Tensor& ga = bin.weight().grad;
    const Tensor& gb = ref.weight().grad;
    for (Dim i = 0; i < ga.numel(); ++i) {
      ASSERT_NEAR(ga[i], gb[i], 1e-4f);
    }
  }
}

TEST(BinConv2D, ForwardClipsShadowWeights) {
  BinConv2D bin(1, 1, 3);
  bin.weight().value.fill(5.0f);
  Tensor in(Shape{1, 1, 3, 3});
  in.fill(1.0f);
  (void)bin.forward(in);
  for (Dim i = 0; i < bin.weight().value.numel(); ++i) {
    EXPECT_FLOAT_EQ(bin.weight().value[i], 1.0f);
  }
}

TEST(BinConv2D, GeometryAndErrors) {
  BinConv2D bin(3, 8, 3);
  EXPECT_EQ(bin.output_shape(Shape{1, 3, 32, 32}), Shape({1, 8, 30, 30}));
  EXPECT_EQ(bin.macs(Shape{1, 3, 32, 32}), 8 * 27 * 900);
  EXPECT_THROW(bin.forward(Tensor(Shape{1, 2, 8, 8})), Error);
}

TEST(BinDense, ForwardUsesBinaryWeights) {
  BinDense dense(4, 2);
  dense.weight().value =
      Tensor(Shape{2, 4}, {0.3f, -0.2f, 0.9f, -0.9f, 0.1f, 0.1f, -0.5f, 0.5f});
  Tensor in(Shape{1, 4}, {1, 1, 1, 1});
  const Tensor out = dense.forward(in);
  // Binarised rows: (+1,-1,+1,-1) and (+1,+1,-1,+1) → sums 0 and 2.
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
}

TEST(BinDense, BackwardRestoresInputRank) {
  BinDense dense(8, 2);
  Rng rng(5);
  dense.init(rng);
  Tensor in(Shape{2, 2, 2, 2});
  in.fill_uniform(rng, -1.0f, 1.0f);
  (void)dense.forward(in);
  Tensor go(Shape{2, 2});
  go.fill(1.0f);
  EXPECT_EQ(dense.backward(go).shape(), in.shape());
}

TEST(BinDense, TrainingSignalFlowsToShadowWeights) {
  BinDense dense(4, 2);
  Rng rng(7);
  dense.init(rng);
  Tensor in(Shape{3, 4});
  in.fill_uniform(rng, -1.0f, 1.0f);
  (void)dense.forward(in);
  Tensor go(Shape{3, 2});
  go.fill(1.0f);
  dense.weight().grad.fill(0.0f);
  (void)dense.backward(go);
  float grad_norm = 0.0f;
  for (Dim i = 0; i < dense.weight().grad.numel(); ++i) {
    grad_norm += std::fabs(dense.weight().grad[i]);
  }
  EXPECT_GT(grad_norm, 0.0f);
}

}  // namespace
}  // namespace mpcnn::bnn
