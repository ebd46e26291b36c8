#include "bnn/bitpack.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "bnn/kernels_impl.hpp"

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

// The stage kernels' patch reader (bnn/kernels_impl.hpp) against a
// per-bit patch assembly of the channels-last contract: map bit
// (y·w + x)·ch + c is channel c of pixel (y, x), and bit b of word
// kh·wpj + j of the patch row at (oh, ow) is bit i = 64j + b of run kh —
// tap (kh, kw = i / ch, c = i % ch), the bit of pixel (oh+kh, ow+kw) —
// or zero past the run.  Channel counts straddle words (3, 5) and make
// runs longer than a word (65 × K = 2), or are byte-aligned (8, 16, 24,
// 40, 64).  The map has exactly one spare word, and 8×8 maps of 5 and 24
// channels end on a word boundary, so the last run's last word reaches
// into the spare word.
struct PatchCase {
  Dim ch, h, w, kernel;
};

// Names each case in test listings, e.g. "ch3_9x7_k3".
void PrintTo(const PatchCase& c, std::ostream* os) {
  *os << "ch" << c.ch << "_" << c.h << "x" << c.w << "_k" << c.kernel;
}

class PatchWordReader : public ::testing::TestWithParam<PatchCase> {};

TEST_P(PatchWordReader, MatchesPerBitPatchAssembly) {
  const auto [ch, h, w, kernel] = GetParam();
  Rng rng(static_cast<std::uint64_t>(ch * h * w * kernel));
  const Dim bits = ch * h * w;
  std::vector<std::uint64_t> map(
      static_cast<std::size_t>((bits + 63) / 64 + 1), 0);
  for (Dim bit = 0; bit < bits; ++bit) {
    if (rng.bernoulli(0.5)) {
      map[static_cast<std::size_t>(bit >> 6)] |= 1ULL << (bit & 63);
    }
  }
  auto bit_of = [&](Dim c, Dim y, Dim x) -> std::uint64_t {
    const Dim bit = (y * w + x) * ch + c;
    return (map[static_cast<std::size_t>(bit >> 6)] >> (bit & 63)) & 1ULL;
  };
  const Dim out_h = h - kernel + 1, out_w = w - kernel + 1;
  const detail::PatchWalk walk = detail::patch_walk(
      {map.data(), ch, w, kernel, out_w, out_h * out_w}, 1);
  const Dim run = kernel * ch;
  ASSERT_EQ(walk.wpj, (run + 63) / 64);
  Dim start = 0, ow_at = 0;
  for (Dim oh = 0; oh < out_h; ++oh) {
    for (Dim ow = 0; ow < out_w; ++ow) {
      detail::RowWords row{start, 0};
      for (Dim kh = 0; kh < kernel; ++kh) {
        for (Dim j = 0; j < walk.wpj; ++j) {
          std::uint64_t want = 0;
          for (Dim b = 0; b < 64 && 64 * j + b < run; ++b) {
            const Dim i = 64 * j + b;
            want |= bit_of(i % ch, oh + kh, ow + i / ch) << b;
          }
          ASSERT_EQ(detail::next_word(walk, row), want)
              << "oh=" << oh << " ow=" << ow << " kh=" << kh << " j=" << j;
        }
      }
      detail::next_row(walk, start, ow_at);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TailWordHostile, PatchWordReader,
    ::testing::Values(PatchCase{3, 9, 7, 3},     // 3-bit pixels
                      PatchCase{1, 8, 8, 3},     // one channel
                      PatchCase{5, 5, 13, 3},    // fields straddle words
                      PatchCase{4, 6, 6, 1},     // K = 1 passthrough
                      PatchCase{2, 12, 11, 5},   // wide kernel
                      PatchCase{65, 4, 5, 2},    // runs longer than a word
                      PatchCase{16, 30, 30, 3},  // CNV conv1, width 0.25
                      PatchCase{64, 30, 30, 3},  // CNV conv1, full width
                      PatchCase{8, 5, 6, 3},     // byte-aligned pixels
                      PatchCase{40, 5, 7, 2},    // byte-aligned, 80-bit runs
                      PatchCase{24, 8, 8, 3},    // reads reach the spare
                      PatchCase{5, 8, 8, 3}      // reads reach the spare
                      ));

}  // namespace
}  // namespace mpcnn::bnn
