// AVX2 GEMM kernels: the 256-bit instance of the register-blocked tile
// (gemm_tile_impl.hpp), the A·Bᵀ panel tile and the ABFT epilogue
// passes.  This TU is compiled with
//   -mavx2 -mfma -ffp-contract=off
// (see src/tensor/CMakeLists.txt); nothing here may be called unless the
// dispatcher verified AVX2 at runtime.  The avx512 level keeps this
// TU's A·Bᵀ tile and ABFT passes and binds gemm_avx512.cpp's tile.
//
// Bit-identity contract: these kernels reproduce the portable kernels'
// per-element rounding sequence exactly.  Vectorisation runs across j
// (output columns) only — each C element keeps one k-ascending chain of
// mul-then-add, one rounding per operation.  That is also why
// accumulation uses explicit _mm256_mul_ps/_mm256_add_ps rather than
// _mm256_fmadd_ps: a fused multiply-add rounds once where the scalar
// baseline rounds twice, which would break cross-ISA bit-identity.  GCC
// lowers the unfused intrinsics to plain vector +/* which -mfma's
// default contraction would happily re-fuse, hence -ffp-contract=off on
// this file.  The tile forms each α·A[i][k] once per 6-row block, rounded
// to float exactly as the portable tile rounds it, and broadcasts it
// from that buffer; the bits it multiplies are the same.
#include "tensor/gemm_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cmath>

#include "tensor/gemm_tile_impl.hpp"

namespace mpcnn::detail {
namespace {

// 256-bit vector ops for gemm_tile (gemm_tile_impl.hpp).  The column
// tail loads and stores through VMASKMOVPS, which suppresses faults in
// the masked-off lanes.
struct Ymm {
  using Vec = __m256;
  using Mask = __m256i;
  static constexpr int kLanes = 8;
  static Vec zero() { return _mm256_setzero_ps(); }
  static Vec load(const float* p) { return _mm256_loadu_ps(p); }
  static Vec load(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static void store(float* p, Vec v, Mask m) { _mm256_maskstore_ps(p, m, v); }
  static Vec broadcast(const float* p) { return _mm256_broadcast_ss(p); }
  static Vec add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  static Mask tail(std::int64_t n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
};

void tile_avx2(std::int64_t mb, std::int64_t nb, std::int64_t kb,
               float alpha, const float* A, std::int64_t lda,
               const float* B, std::int64_t ldb, float* C,
               std::int64_t ldc, bool overwrite) {
  gemm_tile<Ymm>(mb, nb, kb, alpha, A, lda, B, ldb, C, ldc, overwrite);
}

// A·Bᵀ tile with the original dot-form rounding: each element's acc is a
// register lane carried over the FULL k range (never spilled, never
// split), then C += alpha·acc exactly once.  Bp rows (length nb) hold
// the k-th element of each packed column, so lanes again map 1:1 to j.
void bt_tile_avx2(std::int64_t mb, std::int64_t nb, std::int64_t K,
                  float alpha, const float* A, std::int64_t lda,
                  const float* Bp, float* C, std::int64_t ldc) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 4 <= mb; i += 4) {
    const float* a0p = A + (i + 0) * lda;
    const float* a1p = A + (i + 1) * lda;
    const float* a2p = A + (i + 2) * lda;
    const float* a3p = A + (i + 3) * lda;
    std::int64_t j = 0;
    for (; j + 8 <= nb; j += 8) {
      __m256 s0 = _mm256_setzero_ps();
      __m256 s1 = _mm256_setzero_ps();
      __m256 s2 = _mm256_setzero_ps();
      __m256 s3 = _mm256_setzero_ps();
      for (std::int64_t k = 0; k < K; ++k) {
        const float* b = Bp + k * nb + j;
        _mm_prefetch(reinterpret_cast<const char*>(b + 16 * nb),
                     _MM_HINT_T0);
        const __m256 b0 = _mm256_loadu_ps(b);
        s0 = _mm256_add_ps(s0, _mm256_mul_ps(_mm256_set1_ps(a0p[k]), b0));
        s1 = _mm256_add_ps(s1, _mm256_mul_ps(_mm256_set1_ps(a1p[k]), b0));
        s2 = _mm256_add_ps(s2, _mm256_mul_ps(_mm256_set1_ps(a2p[k]), b0));
        s3 = _mm256_add_ps(s3, _mm256_mul_ps(_mm256_set1_ps(a3p[k]), b0));
      }
      float* c0 = C + (i + 0) * ldc + j;
      float* c1 = C + (i + 1) * ldc + j;
      float* c2 = C + (i + 2) * ldc + j;
      float* c3 = C + (i + 3) * ldc + j;
      _mm256_storeu_ps(c0, _mm256_add_ps(_mm256_loadu_ps(c0),
                                         _mm256_mul_ps(va, s0)));
      _mm256_storeu_ps(c1, _mm256_add_ps(_mm256_loadu_ps(c1),
                                         _mm256_mul_ps(va, s1)));
      _mm256_storeu_ps(c2, _mm256_add_ps(_mm256_loadu_ps(c2),
                                         _mm256_mul_ps(va, s2)));
      _mm256_storeu_ps(c3, _mm256_add_ps(_mm256_loadu_ps(c3),
                                         _mm256_mul_ps(va, s3)));
    }
    for (; j < nb; ++j) {
      for (std::int64_t r = 0; r < 4; ++r) {
        const float* ap = A + (i + r) * lda;
        float acc = 0.0f;
        for (std::int64_t k = 0; k < K; ++k) acc += ap[k] * Bp[k * nb + j];
        C[(i + r) * ldc + j] += alpha * acc;
      }
    }
  }
  for (; i < mb; ++i) {
    const float* ap = A + i * lda;
    std::int64_t j = 0;
    for (; j + 8 <= nb; j += 8) {
      __m256 s0 = _mm256_setzero_ps();
      for (std::int64_t k = 0; k < K; ++k) {
        const __m256 b0 = _mm256_loadu_ps(Bp + k * nb + j);
        s0 = _mm256_add_ps(s0, _mm256_mul_ps(_mm256_set1_ps(ap[k]), b0));
      }
      float* c0 = C + i * ldc + j;
      _mm256_storeu_ps(c0, _mm256_add_ps(_mm256_loadu_ps(c0),
                                         _mm256_mul_ps(va, s0)));
    }
    for (; j < nb; ++j) {
      float acc = 0.0f;
      for (std::int64_t k = 0; k < K; ++k) acc += ap[k] * Bp[k * nb + j];
      C[i * ldc + j] += alpha * acc;
    }
  }
}

// --- ABFT epilogue passes -------------------------------------------
// The integrity epilogue audits the tile kernels above, so it must not
// share their arithmetic — it reduces in double through these separate
// passes.  The 4-double vector maps 1:1 onto the portable epilogue's
// four stride-4 lanes, and -ffp-contract=off keeps every w·v then +=
// as two roundings, so the references below are bit-identical to the
// scalar fallback in integrity.cpp.

inline __m256d abs_pd(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

template <bool kColAbs, bool kRowSum, bool kRowAbs>
void abft_pass_body(const float* m, std::int64_t rows, std::int64_t cols,
                    const double* row_w, const double* row_w_abs,
                    double* col_acc, double* col_abs, double* row_sum,
                    double* row_abs) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* mr = m + r * cols;
    const double w = row_w != nullptr ? row_w[r] : 1.0;
    const double wa = row_w_abs != nullptr ? row_w_abs[r] : 1.0;
    const __m256d wv = _mm256_set1_pd(w);
    const __m256d wav = _mm256_set1_pd(wa);
    __m256d rs = _mm256_setzero_pd();
    __m256d rsa = _mm256_setzero_pd();
    std::int64_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(mr + c));
      const __m256d va = abs_pd(v);
      _mm256_storeu_pd(col_acc + c,
                       _mm256_add_pd(_mm256_loadu_pd(col_acc + c),
                                     _mm256_mul_pd(wv, v)));
      if constexpr (kColAbs) {
        _mm256_storeu_pd(col_abs + c,
                         _mm256_add_pd(_mm256_loadu_pd(col_abs + c),
                                       _mm256_mul_pd(wav, va)));
      }
      if constexpr (kRowSum) rs = _mm256_add_pd(rs, v);
      if constexpr (kRowAbs) rsa = _mm256_add_pd(rsa, va);
    }
    double lane[4], lanea[4];
    _mm256_storeu_pd(lane, rs);
    _mm256_storeu_pd(lanea, rsa);
    for (; c < cols; ++c) {  // tail folds into lane 0, like the fallback
      const double v = static_cast<double>(mr[c]);
      const double va = std::fabs(v);
      col_acc[c] += w * v;
      if constexpr (kColAbs) col_abs[c] += wa * va;
      if constexpr (kRowSum) lane[0] += v;
      if constexpr (kRowAbs) lanea[0] += va;
    }
    if constexpr (kRowSum) {
      row_sum[r] = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    }
    if constexpr (kRowAbs) {
      row_abs[r] = (lanea[0] + lanea[1]) + (lanea[2] + lanea[3]);
    }
  }
}

void abft_pass_avx2(const float* m, std::int64_t rows, std::int64_t cols,
                    const double* row_w, const double* row_w_abs,
                    double* col_acc, double* col_abs, double* row_sum,
                    double* row_abs) {
  const int sel = (col_abs != nullptr ? 4 : 0) |
                  (row_sum != nullptr ? 2 : 0) |
                  (row_abs != nullptr ? 1 : 0);
  switch (sel) {
    case 0: abft_pass_body<false, false, false>(m, rows, cols, row_w,
                row_w_abs, col_acc, col_abs, row_sum, row_abs); break;
    case 1: abft_pass_body<false, false, true>(m, rows, cols, row_w,
                row_w_abs, col_acc, col_abs, row_sum, row_abs); break;
    case 2: abft_pass_body<false, true, false>(m, rows, cols, row_w,
                row_w_abs, col_acc, col_abs, row_sum, row_abs); break;
    case 3: abft_pass_body<false, true, true>(m, rows, cols, row_w,
                row_w_abs, col_acc, col_abs, row_sum, row_abs); break;
    case 4: abft_pass_body<true, false, false>(m, rows, cols, row_w,
                row_w_abs, col_acc, col_abs, row_sum, row_abs); break;
    case 5: abft_pass_body<true, false, true>(m, rows, cols, row_w,
                row_w_abs, col_acc, col_abs, row_sum, row_abs); break;
    case 6: abft_pass_body<true, true, false>(m, rows, cols, row_w,
                row_w_abs, col_acc, col_abs, row_sum, row_abs); break;
    default: abft_pass_body<true, true, true>(m, rows, cols, row_w,
                 row_w_abs, col_acc, col_abs, row_sum, row_abs); break;
  }
}

void abft_dots_avx2(const float* m, std::int64_t rows, std::int64_t cols,
                    const double* w, const double* w_abs, double* dots,
                    double* dots_abs) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* mr = m + r * cols;
    __m256d d = _mm256_setzero_pd();
    __m256d da = _mm256_setzero_pd();
    std::int64_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(mr + c));
      d = _mm256_add_pd(d, _mm256_mul_pd(v, _mm256_loadu_pd(w + c)));
      da = _mm256_add_pd(
          da, _mm256_mul_pd(abs_pd(v), _mm256_loadu_pd(w_abs + c)));
    }
    double lane[4], lanea[4];
    _mm256_storeu_pd(lane, d);
    _mm256_storeu_pd(lanea, da);
    for (; c < cols; ++c) {
      const double v = static_cast<double>(mr[c]);
      lane[0] += v * w[c];
      lanea[0] += std::fabs(v) * w_abs[c];
    }
    dots[r] = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    dots_abs[r] = (lanea[0] + lanea[1]) + (lanea[2] + lanea[3]);
  }
}

}  // namespace

const GemmKernels kGemmKernelsAvx2 = {"avx2", &tile_avx2, &bt_tile_avx2,
                                      &abft_pass_avx2, &abft_dots_avx2};

}  // namespace mpcnn::detail

#else  // !__AVX2__ — non-x86 build or missing per-file flags: the
       // dispatcher checks for null pointers and never binds this table.

namespace mpcnn::detail {
const GemmKernels kGemmKernelsAvx2 = {"avx2-unavailable", nullptr, nullptr,
                                      nullptr, nullptr};
}  // namespace mpcnn::detail

#endif
