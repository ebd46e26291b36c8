#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

#include "core/cpu.hpp"
#include "core/integrity/integrity.hpp"
#include "core/threadpool.hpp"
#include "tensor/gemm_kernels.hpp"

namespace mpcnn {
namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// Portable inner kernel: accumulate a (mb x nb) tile of C from
// (mb x kb)·(kb x nb).  The j-loop is the innermost unit-stride loop so
// the compiler can auto-vectorise for the build baseline (SSE2 on
// x86-64); i is unrolled by 4 to amortise the A-loads.  This is the
// rounding-order reference every ISA variant must reproduce bit-exactly.
// With `overwrite` the tile's own block of C is zeroed first, so every
// chain starts from +0.0 as the vector tiles' zeroed accumulators do.
void tile_generic(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                  float alpha, const float* A, std::int64_t lda,
                  const float* B, std::int64_t ldb, float* C,
                  std::int64_t ldc, bool overwrite) {
  if (overwrite) {
    for (std::int64_t r = 0; r < mb; ++r) std::fill_n(C + r * ldc, nb, 0.0f);
  }
  std::int64_t i = 0;
  for (; i + 4 <= mb; i += 4) {
    for (std::int64_t k = 0; k < kb; ++k) {
      const float a0 = alpha * A[(i + 0) * lda + k];
      const float a1 = alpha * A[(i + 1) * lda + k];
      const float a2 = alpha * A[(i + 2) * lda + k];
      const float a3 = alpha * A[(i + 3) * lda + k];
      const float* b = B + k * ldb;
      float* c0 = C + (i + 0) * ldc;
      float* c1 = C + (i + 1) * ldc;
      float* c2 = C + (i + 2) * ldc;
      float* c3 = C + (i + 3) * ldc;
      for (std::int64_t j = 0; j < nb; ++j) {
        const float bj = b[j];
        c0[j] += a0 * bj;
        c1[j] += a1 * bj;
        c2[j] += a2 * bj;
        c3[j] += a3 * bj;
      }
    }
  }
  for (; i < mb; ++i) {
    for (std::int64_t k = 0; k < kb; ++k) {
      const float a0 = alpha * A[i * lda + k];
      const float* b = B + k * ldb;
      float* c0 = C + i * ldc;
      for (std::int64_t j = 0; j < nb; ++j) c0[j] += a0 * b[j];
    }
  }
}

void scale_rows(std::int64_t rows, std::int64_t N, float beta, float* C) {
  if (beta == 1.0f) return;
  if (beta == 0.0f) {
    std::fill(C, C + rows * N, 0.0f);
    return;
  }
  for (std::int64_t i = 0; i < rows * N; ++i) C[i] *= beta;
}

// Per-thread packed-B storage, reused across gemm calls so the hot path
// allocates only when a larger problem arrives.  Thread-local because
// gemm may run inside a batch-parallel region (one instance per worker).
std::vector<float>& packed_b_scratch() {
  thread_local std::vector<float> buf;
  return buf;
}

const detail::GemmKernels kGemmKernelsGeneric = {"generic", &tile_generic,
                                                 nullptr, nullptr, nullptr};

// The avx512 level: the 512-bit tile, with the AVX2 A·Bᵀ tile and ABFT
// passes (the A·Bᵀ tile serves training; the passes reduce in double).
const detail::GemmKernels& avx512_kernels() {
  static const detail::GemmKernels k = {
      "avx512", detail::kGemmTileAvx512, detail::kGemmKernelsAvx2.bt_tile,
      detail::kGemmKernelsAvx2.abft_pass, detail::kGemmKernelsAvx2.abft_dots};
  return k;
}

// ABFT epilogue kernels of the bound dispatch level, in the form the
// integrity hooks accept (null members → portable fallback loops).
core::integrity::GemmAbftKernels abft_kernels() {
  const detail::GemmKernels& kern = detail::gemm_kernels();
  core::integrity::GemmAbftKernels out;
  out.pass = kern.abft_pass;
  out.dots = kern.abft_dots;
  return out;
}

// --- cache blocking ---------------------------------------------------
// Blocking only moves tile boundaries and packing panel sizes; each
// output element keeps its one-thread, k-ascending accumulation, so the
// block sizes can never change results.

constexpr std::int64_t kMc = 64;
constexpr std::int64_t kNc = 256;
constexpr std::int64_t kKc = detail::kGemmTileMaxKb;

void gemm_blocked(std::int64_t M, std::int64_t N, std::int64_t K,
                  float alpha, const float* A, const float* B, float beta,
                  float* C) {
  const detail::GemmKernels& kern = detail::gemm_kernels();
  const std::int64_t mtiles = ceil_div(M, kMc);
  const std::int64_t ntiles = ceil_div(N, kNc);
  const std::int64_t ktiles = ceil_div(K, kKc);

  // Pack B once into panel-contiguous layout: panel (kt, nt) holds the
  // (kb x nb) block with rows of length nb back to back.  The packed
  // panels are shared read-only by all M-tile workers and reused across
  // the whole K-loop of each tile.  With one column panel (N <= kNc)
  // panel (kt, 0) already is B + k0·N with rows of length N, so B is
  // read in place.  Both sides of that choice were timed end to end on
  // cascade_host (Model C serves N = 1024, 256 and 64 convs; 10
  // alternating rounds each, 4-vCPU x86 host): packing at every N lost
  // all 10 rounds to this split (median -5.5%), and so did reading B in
  // place at every N (-3.0%), although an isolated loop over the same
  // N = 1024 GEMMs ran 9% faster in place.  Either way the tile sees the
  // same values, so the floating-point result cannot change.
  const std::int64_t panel = kKc * kNc;
  const bool in_place = ntiles == 1;
  std::vector<float>& Bp = packed_b_scratch();
  if (!in_place) {
    if (static_cast<std::int64_t>(Bp.size()) < ktiles * ntiles * panel) {
      Bp.resize(static_cast<std::size_t>(ktiles * ntiles * panel));
    }
    core::parallel_for(0, ktiles * ntiles, 1, [&](std::int64_t t0,
                                                  std::int64_t t1) {
      for (std::int64_t t = t0; t < t1; ++t) {
        const std::int64_t k0 = (t / ntiles) * kKc;
        const std::int64_t j0 = (t % ntiles) * kNc;
        const std::int64_t kb = std::min(kKc, K - k0);
        const std::int64_t nb = std::min(kNc, N - j0);
        float* dst = Bp.data() + t * panel;
        for (std::int64_t k = 0; k < kb; ++k) {
          std::copy_n(B + (k0 + k) * N + j0, nb, dst + k * nb);
        }
      }
    });
  }

  // One chunk per M-tile: each output row is scaled and accumulated by
  // exactly one thread with the k0-ascending order of the serial kernel,
  // so results are bit-identical at any thread count.  With beta = 0 the
  // first k-tile overwrites C, each chain starting from +0.0 — the value
  // scale_rows would have stored — so C is neither read nor zeroed first.
  const bool overwrite = beta == 0.0f && ktiles > 0;
  const float* Bp_data = Bp.data();
  core::parallel_for(0, mtiles, 1, [&, Bp_data](std::int64_t t0,
                                                std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t i0 = t * kMc;
      const std::int64_t mb = std::min(kMc, M - i0);
      if (!overwrite) scale_rows(mb, N, beta, C + i0 * N);
      for (std::int64_t kt = 0; kt < ktiles; ++kt) {
        const std::int64_t k0 = kt * kKc;
        const std::int64_t kb = std::min(kKc, K - k0);
        for (std::int64_t nt = 0; nt < ntiles; ++nt) {
          const std::int64_t j0 = nt * kNc;
          const std::int64_t nb = std::min(kNc, N - j0);
          const float* Bt = in_place ? B + k0 * N
                                     : Bp_data + (kt * ntiles + nt) * panel;
          kern.tile(mb, nb, kb, alpha, A + i0 * K + k0, K, Bt, nb,
                    C + i0 * N + j0, N, overwrite && kt == 0);
        }
      }
    }
  });
}

// --- gemm_bt packed path (AVX2 level) --------------------------------

// kBtNc stays small: the bt tile re-reads its packed panel once per 8
// output columns (the accumulators must stay register-resident over the
// full K to preserve the dot-form rounding), so the panel must be
// cache-resident.
constexpr std::int64_t kBtMc = 64;
constexpr std::int64_t kBtNc = 64;

void gemm_bt_packed(std::int64_t M, std::int64_t N, std::int64_t K,
                    float alpha, const float* A, const float* B, float beta,
                    float* C, detail::GemmBtTileFn bt_tile) {
  const std::int64_t mtiles = ceil_div(M, kBtMc);
  const std::int64_t ntiles = ceil_div(N, kBtNc);
  // Pack Bᵀ (N x K rows) into per-n-tile column panels: panel nt stores
  // row k = { B[(j0+jj)*K + k] : jj < nb } at offset k·nb, so the tile
  // kernel streams one contiguous row per k.  Pure copies — packing
  // cannot change results.
  const std::int64_t panel = K * kBtNc;
  std::vector<float>& Bp = packed_b_scratch();
  if (static_cast<std::int64_t>(Bp.size()) < ntiles * panel) {
    Bp.resize(static_cast<std::size_t>(ntiles * panel));
  }
  core::parallel_for(0, ntiles, 1, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t j0 = t * kBtNc;
      const std::int64_t nb = std::min(kBtNc, N - j0);
      float* dst = Bp.data() + t * panel;
      for (std::int64_t jj = 0; jj < nb; ++jj) {
        const float* src = B + (j0 + jj) * K;
        for (std::int64_t k = 0; k < K; ++k) dst[k * nb + jj] = src[k];
      }
    }
  });

  const float* Bp_data = Bp.data();
  core::parallel_for(0, mtiles, 1, [&, Bp_data](std::int64_t t0,
                                                std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t i0 = t * kBtMc;
      const std::int64_t mb = std::min(kBtMc, M - i0);
      scale_rows(mb, N, beta, C + i0 * N);
      for (std::int64_t nt = 0; nt < ntiles; ++nt) {
        const std::int64_t j0 = nt * kBtNc;
        const std::int64_t nb = std::min(kBtNc, N - j0);
        bt_tile(mb, nb, K, alpha, A + i0 * K, K, Bp_data + nt * panel,
                C + i0 * N + j0, N);
      }
    }
  });
}

const char* gemm_tile_variant() { return detail::gemm_kernels().name; }
const char* gemm_bt_variant() {
  return detail::gemm_kernels().bt_tile != nullptr ? "avx2-panel" : "dot";
}
// The ABFT epilogue accumulates its checksum references in double via
// separate reduction passes — independent of the blocked/FMA kernel it
// audits, but riding the same ISA dispatch (the AVX2 passes reproduce
// the portable rounding order bit-exactly).
const char* gemm_checksum_variant() {
  const char* variant = detail::gemm_kernels().abft_pass != nullptr
                            ? "avx2-double"
                            : "scalar-double";
  return core::integrity::global_mode() == core::integrity::IntegrityMode::kOff
             ? (detail::gemm_kernels().abft_pass != nullptr
                    ? "avx2-double (off)"
                    : "scalar-double (off)")
             : variant;
}
[[maybe_unused]] const bool kGemmSlotRegistered =
    core::register_kernel_slot("gemm.tile", &gemm_tile_variant);
[[maybe_unused]] const bool kGemmBtSlotRegistered =
    core::register_kernel_slot("gemm.bt", &gemm_bt_variant);
[[maybe_unused]] const bool kGemmChecksumSlotRegistered =
    core::register_kernel_slot("integrity.gemm_checksum",
                               &gemm_checksum_variant);

}  // namespace

namespace detail {

// Rebinds when core::refresh_isa() bumps the generation (test hook); in
// production this resolves once on first use and stays put.
const GemmKernels& gemm_kernels() {
  static std::atomic<const GemmKernels*> cur{nullptr};
  static std::atomic<int> bound_gen{-1};
  static std::mutex mu;
  const int gen = core::isa_generation();
  const GemmKernels* k = cur.load(std::memory_order_acquire);
  if (k == nullptr || bound_gen.load(std::memory_order_acquire) != gen) {
    std::lock_guard<std::mutex> lock(mu);
    // scalar and sse2 run the portable tile; avx2 binds the AVX2 table;
    // avx512 binds the 512-bit tile beside the AVX2 A·Bᵀ tile and ABFT
    // passes.  Every tile keeps the portable tile's per-element chain
    // (α·A[i][k] rounded to float, then one multiply and one add per k,
    // k ascending), so the level changes speed, never a bit.
    k = &kGemmKernelsGeneric;
    const core::Isa isa = core::active_isa();
    if (isa >= core::Isa::kAvx2 && kGemmKernelsAvx2.tile != nullptr) {
      k = &kGemmKernelsAvx2;
      if (isa >= core::Isa::kAvx512 && kGemmTileAvx512 != nullptr) {
        k = &avx512_kernels();
      }
    }
    cur.store(k, std::memory_order_release);
    bound_gen.store(gen, std::memory_order_release);
  }
  return *k;
}

}  // namespace detail

void gemm(std::int64_t M, std::int64_t N, std::int64_t K, float alpha,
          const float* A, const float* B, float beta, float* C) {
  // ABFT guard (core/integrity): snapshot the beta-carried checksums,
  // run the blocked kernel, then cross-verify row/column sums (and land
  // any armed compute fault) in the epilogue.  Inactive guards cost one
  // thread-local load.
  namespace integ = core::integrity;
  const integ::GemmAbftKernels abft = abft_kernels();
  integ::GemmGuard guard = integ::gemm_begin(M, N, beta, C, abft);
  gemm_blocked(M, N, K, alpha, A, B, beta, C);
  integ::gemm_end(guard, integ::GemmLayout::kRowMajorB, M, N, K, alpha, A, B,
                  beta, C, abft);
}

void gemm_at(std::int64_t M, std::int64_t N, std::int64_t K, float alpha,
             const float* A, const float* B, float beta, float* C) {
  // A is (K x M); transpose it into a scratch buffer then reuse gemm.
  // The scratch cost is negligible against the O(M·N·K) multiply and keeps
  // a single highly-tuned kernel.  Each chunk owns a contiguous row block
  // of At (pure copies, deterministic at any thread count).
  std::vector<float> At(static_cast<std::size_t>(M * K));
  core::parallel_for(0, M, 64, [&](std::int64_t m0, std::int64_t m1) {
    for (std::int64_t k = 0; k < K; ++k) {
      for (std::int64_t m = m0; m < m1; ++m) At[m * K + k] = A[k * M + m];
    }
  });
  gemm(M, N, K, alpha, At.data(), B, beta, C);
}

void gemm_bt(std::int64_t M, std::int64_t N, std::int64_t K, float alpha,
             const float* A, const float* B, float beta, float* C) {
  namespace integ = core::integrity;
  const integ::GemmAbftKernels abft = abft_kernels();
  integ::GemmGuard guard = integ::gemm_begin(M, N, beta, C, abft);
  const detail::GemmBtTileFn bt_tile = detail::gemm_kernels().bt_tile;
  if (bt_tile != nullptr) {
    gemm_bt_packed(M, N, K, alpha, A, B, beta, C, bt_tile);
  } else {
    // B is (N x K); dot-product formulation is already cache-friendly
    // since both A rows and B rows are unit-stride.  Rows of C are
    // independent dot products, so chunking over i preserves the
    // summation order.
    core::parallel_for(0, M, 8, [&](std::int64_t i0, std::int64_t i1) {
      scale_rows(i1 - i0, N, beta, C + i0 * N);
      for (std::int64_t i = i0; i < i1; ++i) {
        const float* a = A + i * K;
        for (std::int64_t j = 0; j < N; ++j) {
          const float* b = B + j * K;
          float acc = 0.0f;
          for (std::int64_t k = 0; k < K; ++k) acc += a[k] * b[k];
          C[i * N + j] += alpha * acc;
        }
      }
    });
  }
  integ::gemm_end(guard, integ::GemmLayout::kTransposedB, M, N, K, alpha, A,
                  B, beta, C, abft);
}

void gemm_naive(std::int64_t M, std::int64_t N, std::int64_t K, float alpha,
                const float* A, const float* B, float beta, float* C) {
  for (std::int64_t i = 0; i < M; ++i) {
    for (std::int64_t j = 0; j < N; ++j) {
      float acc = 0.0f;
      for (std::int64_t k = 0; k < K; ++k) acc += A[i * K + k] * B[k * N + j];
      C[i * N + j] = alpha * acc + beta * C[i * N + j];
    }
  }
}

}  // namespace mpcnn
