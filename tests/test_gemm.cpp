#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/shape.hpp"

namespace mpcnn {
namespace {

std::vector<float> random_matrix(Dim rows, Dim cols, Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(rows * cols));
  for (float& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at index " << i;
  }
}

using GemmShape = std::tuple<int, int, int>;

class GemmVsNaive : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmVsNaive, MatchesReference) {
  const auto [M, N, K] = GetParam();
  Rng rng(static_cast<std::uint64_t>(M * 10007 + N * 101 + K));
  const auto A = random_matrix(M, K, rng);
  const auto B = random_matrix(K, N, rng);
  auto C1 = random_matrix(M, N, rng);
  auto C2 = C1;
  gemm(M, N, K, 1.5f, A.data(), B.data(), 0.5f, C1.data());
  gemm_naive(M, N, K, 1.5f, A.data(), B.data(), 0.5f, C2.data());
  expect_close(C1, C2, 1e-3f * static_cast<float>(K));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmVsNaive,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 5, 7},
                      GemmShape{4, 8, 16}, GemmShape{64, 64, 64},
                      GemmShape{65, 257, 300},  // crosses block boundaries
                      GemmShape{128, 100, 576}, GemmShape{10, 784, 27},
                      GemmShape{1, 300, 1}, GemmShape{300, 1, 300},
                      // Either side of the in-place/packed B boundary
                      // (N = 256), over 1 to 3 k-tiles.
                      GemmShape{18, 256, 162}, GemmShape{18, 257, 162},
                      GemmShape{36, 256, 324}, GemmShape{5, 256, 513}));

// Tile-boundary-hostile shapes: every dimension deliberately off the
// 64/256 blocking (±1 around tile edges, plus the degenerate 1 and 3),
// exercised through all three transpose variants against the naive
// reference.
class GemmVariantsHostile : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmVariantsHostile, AllVariantsMatchReference) {
  const auto [M, N, K] = GetParam();
  Rng rng(static_cast<std::uint64_t>(M * 31337 + N * 211 + K * 3 + 1));
  const auto A = random_matrix(M, K, rng);
  const auto B = random_matrix(K, N, rng);
  const auto C0 = random_matrix(M, N, rng);
  std::vector<float> expected = C0;
  gemm_naive(M, N, K, 0.75f, A.data(), B.data(), 0.25f, expected.data());
  const float tol = 1e-3f * static_cast<float>(K);

  std::vector<float> C = C0;
  gemm(M, N, K, 0.75f, A.data(), B.data(), 0.25f, C.data());
  expect_close(C, expected, tol);

  std::vector<float> At(static_cast<std::size_t>(K * M));
  for (Dim k = 0; k < K; ++k)
    for (Dim m = 0; m < M; ++m) At[k * M + m] = A[m * K + k];
  C = C0;
  gemm_at(M, N, K, 0.75f, At.data(), B.data(), 0.25f, C.data());
  expect_close(C, expected, tol);

  std::vector<float> Bt(static_cast<std::size_t>(N * K));
  for (Dim k = 0; k < K; ++k)
    for (Dim n = 0; n < N; ++n) Bt[n * K + k] = B[k * N + n];
  C = C0;
  gemm_bt(M, N, K, 0.75f, A.data(), Bt.data(), 0.25f, C.data());
  expect_close(C, expected, tol);
}

INSTANTIATE_TEST_SUITE_P(
    HostileShapes, GemmVariantsHostile,
    ::testing::Values(GemmShape{1, 3, 1}, GemmShape{3, 1, 3},
                      GemmShape{3, 3, 3}, GemmShape{63, 255, 257},
                      GemmShape{65, 3, 255}, GemmShape{1, 257, 63},
                      GemmShape{127, 129, 1}, GemmShape{66, 258, 3},
                      GemmShape{129, 511, 259}, GemmShape{18, 256, 162},
                      GemmShape{18, 257, 162}, GemmShape{36, 256, 324},
                      GemmShape{5, 256, 513}));

TEST(Gemm, BetaZeroOverwritesGarbage) {
  const Dim M = 4, N = 4, K = 4;
  Rng rng(5);
  const auto A = random_matrix(M, K, rng);
  const auto B = random_matrix(K, N, rng);
  std::vector<float> C(16, std::numeric_limits<float>::quiet_NaN());
  gemm(M, N, K, 1.0f, A.data(), B.data(), 0.0f, C.data());
  for (float v : C) EXPECT_FALSE(std::isnan(v));
}

TEST(Gemm, TransposedAMatchesExplicitTranspose) {
  const Dim M = 13, N = 9, K = 17;
  Rng rng(7);
  const auto At = random_matrix(K, M, rng);  // A^T stored (K x M)
  const auto B = random_matrix(K, N, rng);
  std::vector<float> A(static_cast<std::size_t>(M * K));
  for (Dim k = 0; k < K; ++k)
    for (Dim m = 0; m < M; ++m) A[m * K + k] = At[k * M + m];
  std::vector<float> C1(static_cast<std::size_t>(M * N), 0.0f);
  std::vector<float> C2 = C1;
  gemm_at(M, N, K, 1.0f, At.data(), B.data(), 0.0f, C1.data());
  gemm_naive(M, N, K, 1.0f, A.data(), B.data(), 0.0f, C2.data());
  expect_close(C1, C2, 1e-3f);
}

TEST(Gemm, TransposedBMatchesExplicitTranspose) {
  const Dim M = 11, N = 6, K = 19;
  Rng rng(9);
  const auto A = random_matrix(M, K, rng);
  const auto Bt = random_matrix(N, K, rng);  // B^T stored (N x K)
  std::vector<float> B(static_cast<std::size_t>(K * N));
  for (Dim n = 0; n < N; ++n)
    for (Dim k = 0; k < K; ++k) B[k * N + n] = Bt[n * K + k];
  std::vector<float> C1(static_cast<std::size_t>(M * N), 0.0f);
  std::vector<float> C2 = C1;
  gemm_bt(M, N, K, 1.0f, A.data(), Bt.data(), 0.0f, C1.data());
  gemm_naive(M, N, K, 1.0f, A.data(), B.data(), 0.0f, C2.data());
  expect_close(C1, C2, 1e-3f);
}

TEST(Gemm, AccumulateBetaOne) {
  const Dim M = 5, N = 5, K = 5;
  Rng rng(11);
  const auto A = random_matrix(M, K, rng);
  const auto B = random_matrix(K, N, rng);
  std::vector<float> C(25, 1.0f);
  std::vector<float> expected(25, 0.0f);
  gemm_naive(M, N, K, 1.0f, A.data(), B.data(), 0.0f, expected.data());
  gemm(M, N, K, 1.0f, A.data(), B.data(), 1.0f, C.data());
  for (std::size_t i = 0; i < C.size(); ++i) {
    EXPECT_NEAR(C[i], expected[i] + 1.0f, 1e-4f);
  }
}

}  // namespace
}  // namespace mpcnn
