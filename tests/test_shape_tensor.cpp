#include <gtest/gtest.h>

#include "tensor/tensor.hpp"

namespace mpcnn {
namespace {

TEST(Shape, BasicProperties) {
  const Shape s{2, 3, 32, 32};
  EXPECT_EQ(s.rank(), 4u);
  EXPECT_EQ(s.numel(), 2 * 3 * 32 * 32);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s[-1], 32);
  EXPECT_EQ(s[-4], 2);
  EXPECT_EQ(s.str(), "(2, 3, 32, 32)");
}

TEST(Shape, Strides) {
  const Shape s{2, 3, 4};
  const auto strides = s.strides();
  ASSERT_EQ(strides.size(), 3u);
  EXPECT_EQ(strides[0], 12);
  EXPECT_EQ(strides[1], 4);
  EXPECT_EQ(strides[2], 1);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({1, 2}), Shape({1, 2}));
  EXPECT_NE(Shape({1, 2}), Shape({2, 1}));
  EXPECT_NE(Shape({1, 2}), Shape({1, 2, 1}));
}

TEST(Shape, RejectsNegativeDims) {
  EXPECT_THROW(Shape({-1, 2}), Error);
}

TEST(Shape, RejectsOutOfRangeIndex) {
  const Shape s{2, 3};
  EXPECT_THROW(s.dim(2), Error);
  EXPECT_THROW(s.dim(-3), Error);
}

TEST(Tensor, ZeroInitialised) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (Dim i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ConstructFromData) {
  Tensor t(Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(3), 4.0f);
  EXPECT_THROW(Tensor(Shape({2, 2}), {1, 2, 3}), Error);
}

TEST(Tensor, At4Layout) {
  Tensor t(Shape{2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 42.0f;
  // NCHW flat index: ((n*C + c)*H + h)*W + w
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 42.0f);
}

TEST(Tensor, BoundsChecking) {
  Tensor t(Shape{4});
  EXPECT_THROW(t.at(4), Error);
  EXPECT_THROW(t.at(-1), Error);
}

TEST(Tensor, Reshape) {
  Tensor t(Shape{2, 6});
  const Tensor r = t.reshaped(Shape{3, 4});
  EXPECT_EQ(r.shape(), Shape({3, 4}));
  EXPECT_THROW(t.reshaped(Shape({5, 2})), Error);
}

TEST(Tensor, SliceAndSetBatch) {
  Tensor batch(Shape{3, 2, 2, 2});
  for (Dim i = 0; i < batch.numel(); ++i) batch[i] = static_cast<float>(i);
  const Tensor item = batch.slice_batch(1);
  EXPECT_EQ(item.shape(), Shape({1, 2, 2, 2}));
  EXPECT_EQ(item[0], 8.0f);

  Tensor other(Shape{2, 2, 2, 2});
  other.set_batch(0, batch, 2);
  EXPECT_EQ(other[0], 16.0f);
  EXPECT_THROW(batch.slice_batch(3), Error);
  EXPECT_THROW(other.set_batch(2, batch, 0), Error);
}

TEST(Tensor, Reductions) {
  Tensor t(Shape{4}, {1, -5, 3, 2});
  EXPECT_EQ(t.argmax(), 2);
  EXPECT_EQ(t.max(), 3.0f);
  EXPECT_EQ(t.min(), -5.0f);
  EXPECT_EQ(t.sum(), 1.0f);
  EXPECT_FLOAT_EQ(t.mean(), 0.25f);
}

TEST(Tensor, AxpyAndScale) {
  Tensor a(Shape{3}, {1, 2, 3});
  a.scale(2.0f);
  EXPECT_FLOAT_EQ(a[1], 4.0f);
}

TEST(Tensor, FillDistributions) {
  Rng rng(3);
  Tensor t(Shape{1000});
  t.fill_uniform(rng, -1.0f, 1.0f);
  EXPECT_GE(t.min(), -1.0f);
  EXPECT_LT(t.max(), 1.0f);
  t.fill_normal(rng, 0.0f, 1.0f);
  EXPECT_NEAR(t.mean(), 0.0f, 0.15f);
  t.fill(7.0f);
  EXPECT_EQ(t.min(), 7.0f);
  EXPECT_EQ(t.max(), 7.0f);
}

}  // namespace
}  // namespace mpcnn
