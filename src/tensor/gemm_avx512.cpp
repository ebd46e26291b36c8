// AVX-512 GEMM tile: the 512-bit instance of the register-blocked tile
// (gemm_tile_impl.hpp).  This TU is compiled with
//   -mavx512f -mavx512bw -mavx512vl -mavx2 -mfma -ffp-contract=off
// (see src/tensor/CMakeLists.txt); the dispatcher binds it only at the
// avx512 level, after the runtime probe.  The A·Bᵀ tile and the ABFT
// epilogue passes stay on gemm_avx2.cpp's kernels at that level.
//
// Bit-identity contract: as in gemm_avx2.cpp, lanes map 1:1 onto output
// columns and every C element keeps one k-ascending chain of separate
// _mm512_mul_ps then _mm512_add_ps — never _mm512_fmadd_ps, whose single
// rounding would differ from the portable tile; -ffp-contract=off keeps
// GCC from re-fusing them.  The column tail loads and stores under a
// 16-lane mask: the masked-off lanes touch no memory, so the tail never
// reads past the last row of B or writes past the last row of C.
#include "tensor/gemm_kernels.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include "tensor/gemm_tile_impl.hpp"

namespace mpcnn::detail {
namespace {

// 512-bit vector ops for gemm_tile (gemm_tile_impl.hpp).
struct Zmm {
  using Vec = __m512;
  using Mask = __mmask16;
  static constexpr int kLanes = 16;
  static Vec zero() { return _mm512_setzero_ps(); }
  static Vec load(const float* p) { return _mm512_loadu_ps(p); }
  static Vec load(const float* p, Mask m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static void store(float* p, Vec v) { _mm512_storeu_ps(p, v); }
  static void store(float* p, Vec v, Mask m) {
    _mm512_mask_storeu_ps(p, m, v);
  }
  static Vec broadcast(const float* p) { return _mm512_set1_ps(*p); }
  static Vec add(Vec a, Vec b) { return _mm512_add_ps(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm512_mul_ps(a, b); }
  static Mask tail(std::int64_t n) {
    return static_cast<Mask>((1u << n) - 1);
  }
};

void tile_avx512(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                 float alpha, const float* A, std::int64_t lda,
                 const float* B, std::int64_t ldb, float* C,
                 std::int64_t ldc, bool overwrite) {
  gemm_tile<Zmm>(mb, nb, kb, alpha, A, lda, B, ldb, C, ldc, overwrite);
}

}  // namespace

const GemmTileFn kGemmTileAvx512 = &tile_avx512;

}  // namespace mpcnn::detail

#else  // non-x86 build or missing per-file flags: never bound.

namespace mpcnn::detail {
const GemmTileFn kGemmTileAvx512 = nullptr;
}  // namespace mpcnn::detail

#endif
