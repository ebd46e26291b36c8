// The register-blocked float GEMM tile, written once and included by the
// ISA-flagged TUs gemm_avx2.cpp (256-bit vectors) and gemm_avx512.cpp
// (512-bit vectors).  Each TU passes a vector-ops struct V defined in its
// own anonymous namespace:
//   V::Vec, V::Mask, V::kLanes;
//   V::zero(), V::load(p), V::load(p, m), V::store(p, v),
//   V::store(p, v, m), V::broadcast(p), V::add(a, b), V::mul(a, b),
//   V::tail(n) — the mask of lanes [0, n), 0 < n ≤ kLanes.
// Masked loads and stores touch no memory in the masked-off lanes, so a
// column tail never reads past the last row of B or writes past the last
// row of C.
//
// Every function here is `static inline` (the kernels_impl.hpp idiom):
// each including TU compiles a private copy with its own ISA flags, and
// nothing is emitted into a linker-shared COMDAT section that could
// carry AVX2 or AVX-512 code into the baseline binary.  Keep this header
// dependency-free for the same reason.
//
// Rounding contract (gemm_kernels.hpp, GemmTileFn): C[i][j] is one
// k-ascending chain c = c + (α·A[i][k])·B[k][j] of separate multiplies
// and adds, from the old C or, when `overwrite`, from +0.0.  Vector lanes
// map 1:1 onto columns j, so each lane runs exactly that chain.  The
// product α·A[i][k] is rounded to float once, as the generic tile rounds
// it, and only then stored to the α·A buffer; reading it back from memory
// yields the same float, so forming it once per row block instead of once
// per column block changes no bit.  The TUs are compiled with
// -ffp-contract=off so the multiply-then-add is never fused.
#pragma once

#include <cstdint>

#include "tensor/gemm_kernels.hpp"

namespace mpcnn::detail {

// Rows of C one register block carries.  With two vectors of columns per
// row that is 12 accumulators, two B vectors and one broadcast: 15 of
// the 16 ymm registers at 256 bits.
constexpr int kGemmTileRows = 6;

// R rows × NV vectors of columns of C over the whole kb range.  `ap`
// holds α·A of the R rows k-major (ap[k·R + r]), so each k broadcasts R
// values straight from memory.  With kTail the last vector covers only
// the lanes in `m`.
template <class V, int R, int NV, bool kTail>
static inline void gemm_tile_block(std::int64_t kb, const float* ap,
                                   const float* B, std::int64_t ldb,
                                   float* C, std::int64_t ldc,
                                   bool overwrite, typename V::Mask m) {
  using Vec = typename V::Vec;
  constexpr int W = V::kLanes;
  Vec c[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      const float* p = C + r * ldc + v * W;
      c[r][v] = overwrite                     ? V::zero()
                : (kTail && v + 1 == NV)      ? V::load(p, m)
                                              : V::load(p);
    }
  }
  for (std::int64_t k = 0; k < kb; ++k) {
    const float* b = B + k * ldb;
    Vec bv[NV];
    for (int v = 0; v < NV; ++v) {
      bv[v] = (kTail && v + 1 == NV) ? V::load(b + v * W, m)
                                     : V::load(b + v * W);
    }
    const float* a = ap + k * R;
    for (int r = 0; r < R; ++r) {
      const Vec av = V::broadcast(a + r);
      for (int v = 0; v < NV; ++v) {
        c[r][v] = V::add(c[r][v], V::mul(av, bv[v]));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      float* p = C + r * ldc + v * W;
      if (kTail && v + 1 == NV) {
        V::store(p, c[r][v], m);
      } else {
        V::store(p, c[r][v]);
      }
    }
  }
}

// One block of R rows across all nb columns: α·A is formed once into a
// stack buffer, then two vectors of columns at a time, and the column
// tail (fewer than 2·W columns) as one block whose last vector is masked.
template <class V, int R>
static inline void gemm_tile_rows(std::int64_t nb, std::int64_t kb,
                                  float alpha, const float* A,
                                  std::int64_t lda, const float* B,
                                  std::int64_t ldb, float* C,
                                  std::int64_t ldc, bool overwrite) {
  constexpr std::int64_t W = V::kLanes;
  alignas(64) float ap[kGemmTileMaxKb * R];
  for (std::int64_t k = 0; k < kb; ++k) {
    for (int r = 0; r < R; ++r) ap[k * R + r] = alpha * A[r * lda + k];
  }
  const typename V::Mask all = V::tail(W);
  std::int64_t j = 0;
  for (; j + 2 * W <= nb; j += 2 * W) {
    gemm_tile_block<V, R, 2, false>(kb, ap, B + j, ldb, C + j, ldc,
                                    overwrite, all);
  }
  const std::int64_t rest = nb - j;
  if (rest > W) {
    gemm_tile_block<V, R, 2, true>(kb, ap, B + j, ldb, C + j, ldc,
                                   overwrite, V::tail(rest - W));
  } else if (rest == W) {
    gemm_tile_block<V, R, 1, false>(kb, ap, B + j, ldb, C + j, ldc,
                                    overwrite, all);
  } else if (rest > 0) {
    gemm_tile_block<V, R, 1, true>(kb, ap, B + j, ldb, C + j, ldc,
                                   overwrite, V::tail(rest));
  }
}

// The GemmTileFn body: rows in blocks of kGemmTileRows, then the 1..5
// rows left as one block.  kb ≤ kGemmTileMaxKb (the α·A buffer).
template <class V>
static inline void gemm_tile(std::int64_t mb, std::int64_t nb,
                             std::int64_t kb, float alpha, const float* A,
                             std::int64_t lda, const float* B,
                             std::int64_t ldb, float* C, std::int64_t ldc,
                             bool overwrite) {
  std::int64_t i = 0;
  for (; i + kGemmTileRows <= mb; i += kGemmTileRows) {
    gemm_tile_rows<V, kGemmTileRows>(nb, kb, alpha, A + i * lda, lda, B, ldb,
                                     C + i * ldc, ldc, overwrite);
  }
  const float* a = A + i * lda;
  float* c = C + i * ldc;
  switch (mb - i) {
    case 5:
      gemm_tile_rows<V, 5>(nb, kb, alpha, a, lda, B, ldb, c, ldc, overwrite);
      break;
    case 4:
      gemm_tile_rows<V, 4>(nb, kb, alpha, a, lda, B, ldb, c, ldc, overwrite);
      break;
    case 3:
      gemm_tile_rows<V, 3>(nb, kb, alpha, a, lda, B, ldb, c, ldc, overwrite);
      break;
    case 2:
      gemm_tile_rows<V, 2>(nb, kb, alpha, a, lda, B, ldb, c, ldc, overwrite);
      break;
    case 1:
      gemm_tile_rows<V, 1>(nb, kb, alpha, a, lda, B, ldb, c, ldc, overwrite);
      break;
    default:
      break;
  }
}

}  // namespace mpcnn::detail
