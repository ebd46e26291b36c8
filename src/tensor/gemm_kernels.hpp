// Internal GEMM dispatch table — not part of the public API.
//
// gemm.cpp owns the portable tile kernels and the dispatch decision.
// Two ISA-flagged TUs contribute vector variants, each compiled with its
// own per-file flags so the rest of the binary stays baseline x86-64:
// gemm_avx2.cpp (-mavx2) the 256-bit tile, the A·Bᵀ panel tile and the
// ABFT epilogue passes; gemm_avx512.cpp (-mavx512f/bw/vl) the 512-bit
// tile.  Both tiles are one register-blocked body, gemm_tile_impl.hpp,
// instantiated at their vector width.  The avx2 level binds the AVX2
// table; the avx512 level binds the 512-bit tile and keeps the AVX2
// A·Bᵀ tile and ABFT passes.  Every variant implements the *same
// per-element accumulation order* as the portable tile, so every level
// is bit-identical to the scalar/SSE2 baseline — the contract the
// dispatch tests enforce.
//
// Keep this header dependency-free (<cstdint> only): it is included by
// ISA-flagged TUs, and any inline function such a TU emits into a
// shared COMDAT section could be picked by the linker for the whole
// binary, smuggling AVX2/AVX-512 code onto baseline CPUs.
#pragma once

#include <cstdint>

namespace mpcnn::detail {

/// Longest k range one tile call takes (gemm.cpp's k-tile): the vector
/// tiles keep one row block's α·A for all of it in a stack buffer.
constexpr std::int64_t kGemmTileMaxKb = 256;

/// Accumulates a (mb × nb) C tile from an (mb × kb) A slice and a
/// (kb × nb) B block whose rows lie ldb apart, kb ≤ kGemmTileMaxKb:
///   C[i][j] += Σ_k (alpha·A[i·lda+k]) · B[k·ldb+j]   (k ascending,
/// one rounding per multiply and per add — never fused).  With
/// `overwrite` the old C is never read: each element's chain starts from
/// +0.0 instead (beta = 0, the product's first k-tile).
using GemmTileFn = void (*)(std::int64_t mb, std::int64_t nb,
                            std::int64_t kb, float alpha, const float* A,
                            std::int64_t lda, const float* B,
                            std::int64_t ldb, float* C, std::int64_t ldc,
                            bool overwrite);

/// A·Bᵀ tile with the dot-form epilogue of the original gemm_bt:
///   acc = Σ_k A[i·lda+k] · Bp[k·nb+j]  (k ascending, register-resident
///   over the *full* K so the summation chain is never split), then
///   C[i·ldc+j] += alpha·acc  (two roundings, like the scalar path).
/// Bp holds nb columns of Bᵀ re-packed row-major by k (row k = the k-th
/// element of each of the nb columns).
using GemmBtTileFn = void (*)(std::int64_t mb, std::int64_t nb,
                              std::int64_t K, float alpha, const float* A,
                              std::int64_t lda, const float* Bp, float* C,
                              std::int64_t ldc);

/// ABFT epilogue reduction pass over a rows×cols row-major float matrix
/// (core/integrity gemm_end).  For every element v = m[r][c] (widened to
/// double), va = |v|, with per-row weights w = row_w ? row_w[r] : 1.0 and
/// wa = row_w_abs ? row_w_abs[r] : 1.0:
///   col_acc[c] += w·v            (never null)
///   col_abs[c] += wa·va          (skipped when null)
///   row_sum[r] = Σ_c v           (skipped when null)
///   row_abs[r] = Σ_c va          (skipped when null)
/// Row sums accumulate in four independent stride-4 lanes folded as
/// (l0+l1)+(l2+l3), the scalar tail into lane 0 — the exact rounding
/// sequence of the portable epilogue in integrity.cpp, so checksum
/// references stay bit-identical across dispatch levels.
using GemmAbftPassFn = void (*)(const float* m, std::int64_t rows,
                                std::int64_t cols, const double* row_w,
                                const double* row_w_abs, double* col_acc,
                                double* col_abs, double* row_sum,
                                double* row_abs);

/// Batched ABFT dot products: dots[r] = Σ_c m[r][c]·w[c] and
/// dots_abs[r] = Σ_c |m[r][c]|·w_abs[c], same 4-lane fold as above.
using GemmAbftDotsFn = void (*)(const float* m, std::int64_t rows,
                                std::int64_t cols, const double* w,
                                const double* w_abs, double* dots,
                                double* dots_abs);

struct GemmKernels {
  const char* name;       ///< gemm.tile label ("generic", "avx2", "avx512")
  GemmTileFn tile;        ///< never null
  GemmBtTileFn bt_tile;   ///< null → gemm_bt uses the unpacked dot form
  GemmAbftPassFn abft_pass;  ///< null → portable epilogue loops
  GemmAbftDotsFn abft_dots;  ///< null → portable epilogue loops
};

/// Table bound to the active ISA level (rebinds after core::refresh_isa).
const GemmKernels& gemm_kernels();

/// AVX2 variant, defined in gemm_avx2.cpp.  On non-x86 builds its
/// function pointers are null and the dispatcher never selects it.
extern const GemmKernels kGemmKernelsAvx2;

/// 512-bit tile, defined in gemm_avx512.cpp (null on non-x86 builds).
extern const GemmTileFn kGemmTileAvx512;

}  // namespace mpcnn::detail
