#include "tensor/im2col.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/shape.hpp"

namespace mpcnn {
namespace {

TEST(ConvGeometry, OutputSizes) {
  ConvGeometry g{3, 32, 32, 3, 1, 0};
  EXPECT_EQ(g.out_h(), 30);
  EXPECT_EQ(g.out_w(), 30);
  EXPECT_EQ(g.patch_size(), 27);
  EXPECT_EQ(g.positions(), 900);
  EXPECT_TRUE(g.valid());

  ConvGeometry padded{16, 32, 32, 5, 1, 2};
  EXPECT_EQ(padded.out_h(), 32);
  EXPECT_EQ(padded.out_w(), 32);

  ConvGeometry strided{8, 32, 32, 3, 2, 1};
  EXPECT_EQ(strided.out_h(), 16);
}

TEST(ConvGeometry, DegenerateIsInvalid) {
  ConvGeometry g{1, 2, 2, 5, 1, 0};  // kernel larger than input
  EXPECT_FALSE(g.valid());
}

TEST(Im2Col, HandComputedSingleChannel) {
  // 3x3 input, 2x2 kernel, stride 1, no padding → patches are the four
  // overlapping 2x2 windows.
  ConvGeometry g{1, 3, 3, 2, 1, 0};
  const std::vector<float> im = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> col(static_cast<std::size_t>(g.patch_size() *
                                                  g.positions()));
  im2col(g, im.data(), col.data());
  // Rows are kernel offsets (kh,kw); columns are output positions.
  const std::vector<float> expected = {
      1, 2, 4, 5,  // (0,0)
      2, 3, 5, 6,  // (0,1)
      4, 5, 7, 8,  // (1,0)
      5, 6, 8, 9,  // (1,1)
  };
  EXPECT_EQ(col, expected);
}

TEST(Im2Col, ZeroPaddingInsertsZeros) {
  ConvGeometry g{1, 2, 2, 3, 1, 1};
  const std::vector<float> im = {1, 2, 3, 4};
  std::vector<float> col(static_cast<std::size_t>(g.patch_size() *
                                                  g.positions()));
  im2col(g, im.data(), col.data());
  // Top-left output position: kernel centred so the first row/col are pad.
  // Row (kh=0,kw=0) for position (0,0) must be 0.
  EXPECT_EQ(col[0], 0.0f);
  // Row (kh=1,kw=1) (centre) for position (0,0) is the pixel value 1.
  const Dim centre_row = 1 * 3 + 1;
  EXPECT_EQ(col[centre_row * g.positions() + 0], 1.0f);
}

TEST(Im2Col, ChannelMajorRowOrder) {
  ConvGeometry g{2, 2, 2, 1, 1, 0};  // 1x1 kernel: rows are channels
  const std::vector<float> im = {1, 2, 3, 4, 10, 20, 30, 40};
  std::vector<float> col(8);
  im2col(g, im.data(), col.data());
  const std::vector<float> expected = {1, 2, 3, 4, 10, 20, 30, 40};
  EXPECT_EQ(col, expected);
}

TEST(Im2Col, HostileGeometriesMatchPerElementReference) {
  // {channels, in_h, in_w, kernel, stride, pad}
  const ConvGeometry geometries[] = {
      {2, 4, 5, 3, 1, 3},   // pad >= kernel
      {3, 3, 2, 3, 1, 4},   // pad >= input width and height
      {1, 1, 1, 7, 1, 3},   // 1x1 input, pad on every side
      {2, 9, 11, 2, 3, 0},  // stride > kernel
      {2, 8, 7, 1, 4, 1},   // 1x1 kernel, stride > kernel, padded
      {2, 10, 13, 5, 3, 2}, // stride 3 over odd sizes
      {3, 1, 1, 1, 1, 0},   // 1x1 input, identity lowering
      {2, 1, 1, 3, 2, 1},   // 1x1 input, padded and strided
  };
  Rng rng(31);
  for (const ConvGeometry& g : geometries) {
    ASSERT_TRUE(g.valid());
    std::vector<float> im(
        static_cast<std::size_t>(g.in_channels * g.in_h * g.in_w));
    for (float& v : im) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const Dim OW = g.out_w(), pos = g.positions();
    std::vector<float> want(static_cast<std::size_t>(g.patch_size() * pos));
    for (Dim row = 0; row < g.patch_size(); ++row) {
      const Dim c = row / (g.kernel * g.kernel);
      const Dim kh = row / g.kernel % g.kernel, kw = row % g.kernel;
      for (Dim p = 0; p < pos; ++p) {
        const Dim ih = p / OW * g.stride + kh - g.pad;
        const Dim iw = p % OW * g.stride + kw - g.pad;
        const bool inside = ih >= 0 && ih < g.in_h && iw >= 0 && iw < g.in_w;
        want[static_cast<std::size_t>(row * pos + p)] =
            inside ? im[static_cast<std::size_t>((c * g.in_h + ih) * g.in_w +
                                                 iw)]
                   : 0.0f;
      }
    }
    // NaN sentinels: a cell im2col never writes cannot compare equal.
    std::vector<float> col(want.size(),
                           std::numeric_limits<float>::quiet_NaN());
    im2col(g, im.data(), col.data());
    const float* patches = patch_matrix(g, im.data());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(col[i], want[i])
          << "geometry c" << g.in_channels << " " << g.in_h << "x" << g.in_w
          << " k" << g.kernel << " s" << g.stride << " p" << g.pad
          << " element " << i;
      ASSERT_EQ(patches[i], want[i]) << "patch_matrix element " << i;
    }
  }
}

TEST(Im2Col, PatchMatrixIsTheInputOnlyForTheIdentityLowering) {
  const std::vector<float> im(2 * 4 * 4, 1.0f);
  EXPECT_EQ(patch_matrix(ConvGeometry{2, 4, 4, 1, 1, 0}, im.data()),
            im.data());
  EXPECT_NE(patch_matrix(ConvGeometry{2, 4, 4, 1, 1, 1}, im.data()),
            im.data());
  EXPECT_NE(patch_matrix(ConvGeometry{2, 4, 4, 1, 2, 0}, im.data()),
            im.data());
}

TEST(Col2Im, IsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the property the
  // conv backward pass relies on.
  ConvGeometry g{3, 7, 6, 3, 2, 1};
  Rng rng(17);
  const Dim im_size = g.in_channels * g.in_h * g.in_w;
  const Dim col_size = g.patch_size() * g.positions();
  std::vector<float> x(static_cast<std::size_t>(im_size));
  std::vector<float> y(static_cast<std::size_t>(col_size));
  for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : y) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  std::vector<float> col(static_cast<std::size_t>(col_size), 0.0f);
  im2col(g, x.data(), col.data());
  double lhs = 0.0;
  for (Dim i = 0; i < col_size; ++i) lhs += col[i] * y[i];

  std::vector<float> im(static_cast<std::size_t>(im_size), 0.0f);
  col2im(g, y.data(), im.data());
  double rhs = 0.0;
  for (Dim i = 0; i < im_size; ++i) rhs += x[i] * im[i];

  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Col2Im, RoundTripCountsWindowMultiplicity) {
  // col2im(im2col(ones)) equals, per pixel, the number of windows that
  // cover that pixel.
  ConvGeometry g{1, 4, 4, 2, 1, 0};
  std::vector<float> ones(16, 1.0f);
  std::vector<float> col(static_cast<std::size_t>(g.patch_size() *
                                                  g.positions()));
  im2col(g, ones.data(), col.data());
  std::vector<float> back(16, 0.0f);
  col2im(g, col.data(), back.data());
  // Corners are covered once, edges twice, interior four times.
  EXPECT_EQ(back[0], 1.0f);
  EXPECT_EQ(back[1], 2.0f);
  EXPECT_EQ(back[5], 4.0f);
}

}  // namespace
}  // namespace mpcnn
