#include "bnn/bitpack.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "tensor/rng.hpp"

namespace mpcnn::bnn {
namespace {

TEST(BitVector, SetGetClear) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(99, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(99));
  EXPECT_FALSE(v.get(1));
  v.set(63, false);
  EXPECT_FALSE(v.get(63));
  EXPECT_TRUE(v.get(64));
}

TEST(BitVector, BoundsCheckedInDebugBuilds) {
  // get/set are MPCNN_DCHECK-guarded: checked in debug builds, unchecked
  // in release so inner loops are not check-bound.
  if constexpr (kDebugChecksEnabled) {
    BitVector v(10);
    EXPECT_THROW(v.get(10), Error);
    EXPECT_THROW(v.set(-1, true), Error);
  }
}

class BitVectorDot : public ::testing::TestWithParam<int> {};

TEST_P(BitVectorDot, BipolarDotMatchesFloatReference) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 7919);
  BitVector a(n), b(n);
  std::vector<float> fa(static_cast<std::size_t>(n)),
      fb(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const bool ba = rng.bernoulli(0.5);
    const bool bb = rng.bernoulli(0.5);
    a.set(i, ba);
    b.set(i, bb);
    fa[static_cast<std::size_t>(i)] = ba ? 1.0f : -1.0f;
    fb[static_cast<std::size_t>(i)] = bb ? 1.0f : -1.0f;
  }
  float expected = 0.0f;
  for (int i = 0; i < n; ++i) {
    expected += fa[static_cast<std::size_t>(i)] *
                fb[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(static_cast<float>(a.dot_bipolar(b)), expected);
  // matches = (dot + n) / 2
  EXPECT_EQ(a.xnor_matches(b), (a.dot_bipolar(b) + n) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVectorDot,
                         ::testing::Values(1, 7, 63, 64, 65, 100, 127, 128,
                                           576, 2304));

TEST(BitVector, PaddingBitsDoNotCountAsMatches) {
  // Two all-zero vectors of size 65: every real position matches (both
  // encode −1), the 63 padding bits must not inflate the count.
  BitVector a(65), b(65);
  EXPECT_EQ(a.xnor_matches(b), 65);
  EXPECT_EQ(a.dot_bipolar(b), 65);
}

TEST(BitVector, SizeMismatchThrows) {
  BitVector a(10), b(11);
  EXPECT_THROW(a.xnor_matches(b), Error);
}

TEST(BitVector, EqualityOperator) {
  BitVector a(20), b(20), c(21);
  a.set(5, true);
  EXPECT_FALSE(a == b);
  b.set(5, true);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(BitMatrix, BoundsCheckedInDebugBuilds) {
  BitMatrix m(2, 10);
  if constexpr (kDebugChecksEnabled) {
    EXPECT_THROW(m.get(2, 0), Error);
    EXPECT_THROW(m.set(0, 10, true), Error);
  }
}

TEST(SignBit, ZeroMapsToPlusOne) {
  EXPECT_TRUE(sign_bit(0.0f));
  EXPECT_TRUE(sign_bit(1.0f));
  EXPECT_FALSE(sign_bit(-1e-9f));
}

// Randomized packed-vs-scalar equivalence at tail-word hostile widths:
// cols % 64 ∈ {0, 1, 63} plus small odd sizes.  The reference is built
// bit by bit from get(), so it shares no kernel with xnor_gemm.
class XnorGemmShapes : public ::testing::TestWithParam<int> {};

TEST_P(XnorGemmShapes, MatchesRowDotReference) {
  const Dim cols = GetParam();
  const Dim rows = 5, positions = 7;
  Rng rng(static_cast<std::uint64_t>(cols) * 131);
  BitMatrix a(rows, cols), b(positions, cols);
  for (Dim r = 0; r < rows; ++r) {
    for (Dim c = 0; c < cols; ++c) a.set(r, c, rng.bernoulli(0.5));
  }
  for (Dim p = 0; p < positions; ++p) {
    for (Dim c = 0; c < cols; ++c) b.set(p, c, rng.bernoulli(0.5));
  }
  std::vector<std::int32_t> out(static_cast<std::size_t>(rows * positions));
  xnor_gemm(a, b, out.data());
  for (Dim r = 0; r < rows; ++r) {
    for (Dim p = 0; p < positions; ++p) {
      std::int32_t want = 0;
      for (Dim c = 0; c < cols; ++c) {
        want += a.get(r, c) == b.get(p, c) ? 1 : -1;
      }
      EXPECT_EQ(out[static_cast<std::size_t>(r * positions + p)], want)
          << "cols=" << cols << " r=" << r << " p=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TailWordHostile, XnorGemmShapes,
                         ::testing::Values(1, 63, 64, 65, 127, 128, 191,
                                           192, 193));

TEST(XnorGemm, ColumnMismatchThrows) {
  BitMatrix a(2, 64), b(2, 65);
  std::vector<std::int32_t> out(4);
  EXPECT_THROW(xnor_gemm(a, b, out.data()), Error);
}

// bit_im2col against a per-bit patch assembly of the channels-last
// contract: map bit (y·w + x)·ch + c is channel c of pixel (y, x), and
// patch column (kh·K + kw)·ch + c is that bit of pixel (oh+kh, ow+kw).
// Channel counts straddle words (3, 5) and make kernel-row runs longer
// than a word (65 × K = 2).
struct Im2colCase {
  Dim ch, h, w, kernel;
};

class BitIm2colShapes : public ::testing::TestWithParam<Im2colCase> {};

TEST_P(BitIm2colShapes, MatchesPerBitPatchAssembly) {
  const auto [ch, h, w, kernel] = GetParam();
  Rng rng(static_cast<std::uint64_t>(ch * h * w * kernel));
  const Dim bits = ch * h * w;
  std::vector<std::uint64_t> map(static_cast<std::size_t>((bits + 63) / 64 + 1),
                                 0);
  for (Dim bit = 0; bit < bits; ++bit) {
    if (rng.bernoulli(0.5)) {
      map[static_cast<std::size_t>(bit >> 6)] |= 1ULL << (bit & 63);
    }
  }
  auto bit_of = [&](Dim c, Dim y, Dim x) {
    const Dim bit = (y * w + x) * ch + c;
    return ((map[static_cast<std::size_t>(bit >> 6)] >> (bit & 63)) & 1ULL) !=
           0;
  };
  const BitMatrix patches = bit_im2col(map.data(), ch, h, w, kernel);
  const Dim out_h = h - kernel + 1, out_w = w - kernel + 1;
  const Dim cols = ch * kernel * kernel;
  ASSERT_EQ(patches.rows(), out_h * out_w);
  ASSERT_EQ(patches.cols(), cols);
  for (Dim oh = 0; oh < out_h; ++oh) {
    for (Dim ow = 0; ow < out_w; ++ow) {
      const Dim pos = oh * out_w + ow;
      for (Dim kh = 0; kh < kernel; ++kh) {
        for (Dim kw = 0; kw < kernel; ++kw) {
          for (Dim c = 0; c < ch; ++c) {
            const Dim col = (kh * kernel + kw) * ch + c;
            ASSERT_EQ(patches.get(pos, col), bit_of(c, oh + kh, ow + kw))
                << "pos=" << pos << " kh=" << kh << " kw=" << kw
                << " c=" << c;
          }
        }
      }
      // Padding past `cols` stays zero, so XOR against weights cancels.
      const Dim tail = cols & 63;
      if (tail != 0) {
        EXPECT_EQ(patches.row_data(pos)[patches.words_per_row() - 1] >> tail,
                  0u)
            << "pos=" << pos;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TailWordHostile, BitIm2colShapes,
    ::testing::Values(Im2colCase{3, 9, 7, 3},     // 3-bit pixels
                      Im2colCase{1, 8, 8, 3},     // one channel
                      Im2colCase{5, 5, 13, 3},    // fields straddle words
                      Im2colCase{4, 6, 6, 1},     // K = 1 passthrough
                      Im2colCase{2, 12, 11, 5},   // wide kernel
                      Im2colCase{65, 4, 5, 2},    // runs longer than a word
                      Im2colCase{16, 30, 30, 3},  // CNV conv1, width 0.25
                      Im2colCase{64, 30, 30, 3}   // CNV conv1, full width
                      ));

}  // namespace
}  // namespace mpcnn::bnn
