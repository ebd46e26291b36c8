#include "bnn/bitpack.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "bnn/kernels_impl.hpp"

#include "tensor/rng.hpp"

namespace mpcnn::bnn {
namespace {

TEST(BitMatrix, SetGetClear) {
  BitMatrix m(2, 100);
  EXPECT_EQ(m.words_per_row(), 2);
  for (Dim c : {0, 63, 64, 99}) m.set(1, c, true);
  EXPECT_TRUE(m.get(1, 0));
  EXPECT_TRUE(m.get(1, 63));
  EXPECT_TRUE(m.get(1, 64));
  EXPECT_TRUE(m.get(1, 99));
  EXPECT_FALSE(m.get(1, 1));
  EXPECT_FALSE(m.get(0, 0));  // rows never share a word
  m.set(1, 63, false);
  EXPECT_FALSE(m.get(1, 63));
  EXPECT_TRUE(m.get(1, 64));
}

TEST(BitMatrix, BoundsCheckedInDebugBuilds) {
  BitMatrix m(2, 10);
  if constexpr (kDebugChecksEnabled) {
    EXPECT_THROW(m.get(2, 0), Error);
    EXPECT_THROW(m.set(0, 10, true), Error);
  }
}

// An n-bit vector is a one-row BitMatrix, and xnor_gemm is the one binary
// product: the bipolar dot of two vectors must equal the dot product of
// their ±1 floats, and the matching bits must be (dot + n) / 2.
class BitVectorDot : public ::testing::TestWithParam<int> {};

TEST_P(BitVectorDot, BipolarDotMatchesFloatReference) {
  const Dim n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 7919);
  BitMatrix a(1, n), b(1, n);
  float expected = 0.0f;
  Dim matches = 0;
  for (Dim i = 0; i < n; ++i) {
    const bool ba = rng.bernoulli(0.5);
    const bool bb = rng.bernoulli(0.5);
    a.set(0, i, ba);
    b.set(0, i, bb);
    expected += (ba ? 1.0f : -1.0f) * (bb ? 1.0f : -1.0f);
    if (ba == bb) ++matches;
  }
  std::int32_t dot = 0;
  xnor_gemm(a, b, &dot);
  EXPECT_EQ(static_cast<float>(dot), expected);
  EXPECT_EQ(matches, (dot + n) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVectorDot,
                         ::testing::Values(1, 7, 63, 64, 65, 100, 127, 128,
                                           576, 2304));

TEST(SignBit, ZeroMapsToPlusOne) {
  EXPECT_TRUE(sign_bit(0.0f));
  EXPECT_TRUE(sign_bit(1.0f));
  EXPECT_FALSE(sign_bit(-1e-9f));
}

// Randomized packed-vs-scalar equivalence at tail-word hostile widths:
// cols % 64 ∈ {0, 1, 63} plus small odd sizes, and CNV's 576- and
// 2,304-bit conv patch rows.  The reference is built bit by bit from
// get(), so it shares no kernel with xnor_gemm and pins the bipolar-dot
// identity  dot = 2·matches − cols  on its own.
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
                         ::testing::Values(1, 7, 63, 64, 65, 100, 127, 128,
                                           191, 192, 193, 576, 2304));

TEST(XnorGemm, PaddingBitsDoNotCountAsMatches) {
  // All-zero rows of 65 columns: every real column matches (both encode
  // −1), and the 63 padding bits of the last word must not add to it.
  BitMatrix a(3, 65), b(2, 65);
  std::vector<std::int32_t> out(6);
  xnor_gemm(a, b, out.data());
  EXPECT_EQ(out, std::vector<std::int32_t>(6, 65));
}

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
