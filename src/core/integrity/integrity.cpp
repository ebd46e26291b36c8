#include "core/integrity/integrity.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "tensor/error.hpp"
#include "tensor/rng.hpp"

namespace mpcnn::core::integrity {
namespace {

std::atomic<int> g_mode{-1};  // -1 = resolve from MPCNN_INTEGRITY
std::atomic<std::uint64_t> g_checks_run{0};
std::atomic<std::uint64_t> g_checks_failed{0};

// float32 machine epsilon (2^-23).
constexpr double kEps32 = 1.1920928955078125e-07;

// Float-tolerance scale: tol = kToleranceFactor·eps32·(16 + √(K+rows))·mag,
// with mag the elementwise-absolute checksum magnitude.
constexpr double kToleranceFactor = 8.0;

// Strict-IEEE double reductions are latency chains (one add every ~4
// cycles); four independent lanes folded in a fixed order keep the sum
// bit-reproducible while letting the adds pipeline.  The epilogue's
// cost budget (<= 15% of the kernel, see bench_integrity) depends on
// this.
struct Lanes4 {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  double total() const { return (lane[0] + lane[1]) + (lane[2] + lane[3]); }
};

// Dot products row·weight and |row|·|weight| with pipelined lanes.
void lane_dots(const float* row, const double* w, const double* w_abs,
               std::int64_t len, double* dot, double* dot_abs) {
  Lanes4 d, da;
  std::int64_t i = 0;
  for (; i + 4 <= len; i += 4) {
    for (int l = 0; l < 4; ++l) {
      const double v = static_cast<double>(row[i + l]);
      d.lane[l] += v * w[i + l];
      da.lane[l] += std::fabs(v) * w_abs[i + l];
    }
  }
  for (; i < len; ++i) {
    const double v = static_cast<double>(row[i]);
    d.lane[0] += v * w[i];
    da.lane[0] += std::fabs(v) * w_abs[i];
  }
  *dot = d.total();
  *dot_abs = da.total();
}

// Portable GemmAbftPassFn (see integrity.hpp): the rounding-order
// reference the AVX2 variant in tensor/gemm_avx2.cpp reproduces
// bit-exactly.  Absent weights behave as 1.0 (the multiply is exact),
// matching the accelerated variant instruction-for-instruction.
template <bool kColAbs, bool kRowSum, bool kRowAbs>
void abft_pass_body(const float* m, std::int64_t rows, std::int64_t cols,
                    const double* row_w, const double* row_w_abs,
                    double* col_acc, double* col_abs, double* row_sum,
                    double* row_abs) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* mr = m + r * cols;
    const double w = row_w != nullptr ? row_w[r] : 1.0;
    const double wa = row_w_abs != nullptr ? row_w_abs[r] : 1.0;
    Lanes4 rs, rsa;
    std::int64_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      for (int l = 0; l < 4; ++l) {
        const double v = static_cast<double>(mr[c + l]);
        const double va = std::fabs(v);
        col_acc[c + l] += w * v;
        if constexpr (kColAbs) col_abs[c + l] += wa * va;
        if constexpr (kRowSum) rs.lane[l] += v;
        if constexpr (kRowAbs) rsa.lane[l] += va;
      }
    }
    for (; c < cols; ++c) {  // tail folds into lane 0
      const double v = static_cast<double>(mr[c]);
      const double va = std::fabs(v);
      col_acc[c] += w * v;
      if constexpr (kColAbs) col_abs[c] += wa * va;
      if constexpr (kRowSum) rs.lane[0] += v;
      if constexpr (kRowAbs) rsa.lane[0] += va;
    }
    if constexpr (kRowSum) row_sum[r] = rs.total();
    if constexpr (kRowAbs) row_abs[r] = rsa.total();
  }
}

void abft_pass_portable(const float* m, std::int64_t rows, std::int64_t cols,
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

void abft_dots_portable(const float* m, std::int64_t rows, std::int64_t cols,
                        const double* w, const double* w_abs, double* dots,
                        double* dots_abs) {
  for (std::int64_t r = 0; r < rows; ++r) {
    lane_dots(m + r * cols, w, w_abs, cols, dots + r, dots_abs + r);
  }
}

}  // namespace

struct Scope::State {
  ScopeOptions opts;
  int calls = 0;
  int fired = 0;
};

namespace {

thread_local Scope::State* g_scope = nullptr;
// Call ordinal for kernels verified outside any scope (global mode):
// per-thread, so the sampling decision never shares state across
// threads.
thread_local std::uint64_t g_unscoped_calls = 0;

bool fault_eligible(ComputeFaultKind kind, KernelFamily family) {
  switch (kind) {
    case ComputeFaultKind::kAccumulatorBitFlip:
    case ComputeFaultKind::kPartialSumCorruption:
      return true;
    case ComputeFaultKind::kPopcountLaneStuck:
      return family == KernelFamily::kXnorGemm;
  }
  return false;
}

// Shared begin-gate: decides activity, the call ordinal and the
// sampling verdict for one hooked kernel call.
struct CallGate {
  bool active = false;
  bool verify = false;
  int call_index = 0;
};

CallGate open_gate() {
  CallGate gate;
  Scope::State* s = g_scope;
  const IntegrityMode mode = s ? s->opts.mode : global_mode();
  const bool has_faults = s != nullptr && !s->opts.faults.empty();
  if (mode == IntegrityMode::kOff && !has_faults) return gate;
  gate.active = true;
  gate.call_index =
      s ? s->calls++ : static_cast<int>(g_unscoped_calls++ & 0x7FFFFFFF);
  if (mode == IntegrityMode::kFull) {
    gate.verify = true;
  } else if (mode == IntegrityMode::kSample) {
    const std::uint64_t token = s ? s->opts.token : 0;
    const std::int64_t period = s && s->opts.sample_period > 0
                                    ? s->opts.sample_period
                                    : 8;
    gate.verify = mix64(mix64(token, 0xAB57ULL),
                        static_cast<std::uint64_t>(gate.call_index)) %
                      static_cast<std::uint64_t>(period) ==
                  0;
  }
  return gate;
}

void deliver(const Detection& det) {
  g_checks_failed.fetch_add(1, std::memory_order_relaxed);
  Scope::State* s = g_scope;
  if (s != nullptr && s->opts.sink != nullptr) {
    s->opts.sink->push_back(det);
    return;
  }
  MPCNN_CHECK(false,
              "integrity: "
                  << (det.family == KernelFamily::kGemm ? "gemm"
                                                        : "xnor_gemm")
                  << " checksum mismatch at call " << det.call_index
                  << " lane " << det.lane << " (got " << det.got << ", ref "
                  << det.ref << ", tol " << det.tolerance << ")");
}

// ---- armed fault application --------------------------------------

bool apply_gemm_fault(const ArmedComputeFault& f, std::int64_t M,
                      std::int64_t N, float* C) {
  const std::int64_t total = M * N;
  if (total == 0) return false;
  switch (f.kind) {
    case ComputeFaultKind::kAccumulatorBitFlip: {
      // Strike the largest-|x| of 32 hash-probed accumulators and flip
      // an exponent-region bit: the delta is a large fraction of the
      // column's dominant term, far above the rounding-noise tolerance,
      // so the emulated flip is detectable wherever it lands.
      std::int64_t best = 0;
      double best_mag = -1.0;
      for (int i = 0; i < 32; ++i) {
        const std::int64_t idx = static_cast<std::int64_t>(
            mix64(f.seed, 0xACC0ULL + static_cast<std::uint64_t>(i)) %
            static_cast<std::uint64_t>(total));
        const double mag = std::fabs(static_cast<double>(C[idx]));
        if (mag > best_mag) {
          best_mag = mag;
          best = idx;
        }
      }
      if (!(best_mag > 0.0)) {
        C[best] = 1.0f;  // stuck-high bit on an all-zero lane
        return true;
      }
      std::uint32_t u = 0;
      std::memcpy(&u, &C[best], sizeof(u));
      u ^= 1u << (23 + static_cast<int>(mix64(f.seed, 0xB17ULL) % 4));
      std::memcpy(&C[best], &u, sizeof(u));
      return true;
    }
    case ComputeFaultKind::kPartialSumCorruption: {
      const std::int64_t start = static_cast<std::int64_t>(
          mix64(f.seed, 0xD0AULL) % static_cast<std::uint64_t>(total));
      const std::int64_t len = std::min<std::int64_t>(8, total - start);
      for (std::int64_t i = 0; i < len; ++i) {
        std::uint32_t u = 0;
        std::memcpy(&u, &C[start + i], sizeof(u));
        u ^= static_cast<std::uint32_t>(
            mix64(f.seed, 0x900DULL + static_cast<std::uint64_t>(i)) | 1);
        std::memcpy(&C[start + i], &u, sizeof(u));
      }
      return len > 0;
    }
    case ComputeFaultKind::kPopcountLaneStuck:
      break;  // filtered by fault_eligible
  }
  return false;
}

// Strikes the accumulator of weight row r at position p, which sits at
// acc[p·stride + r] in the lane layout.
bool apply_xnor_fault(const ArmedComputeFault& f, std::int64_t rows,
                      std::int64_t cols, std::int64_t n, std::int32_t* acc,
                      std::int64_t stride) {
  const std::int64_t total = rows * n;
  if (total == 0) return false;
  auto at = [&](std::int64_t r, std::int64_t p) -> std::int32_t& {
    return acc[p * stride + r];
  };
  auto flip = [](std::int32_t& v, std::uint32_t bits) {
    v = static_cast<std::int32_t>(static_cast<std::uint32_t>(v) ^ bits);
  };
  switch (f.kind) {
    case ComputeFaultKind::kAccumulatorBitFlip: {
      const std::int64_t idx = static_cast<std::int64_t>(
          mix64(f.seed, 0xACC0ULL) % static_cast<std::uint64_t>(total));
      const int bit = static_cast<int>(mix64(f.seed, 0xB17ULL) % 31);
      flip(at(idx / n, idx % n), 1u << bit);
      return true;
    }
    case ComputeFaultKind::kPopcountLaneStuck: {
      // One 64-bit lane of the 256-bit lane loop (channels ≡ lane mod 4)
      // reports its mismatch count with a bit stuck at one: every
      // channel the lane computed moves the same direction, exactly the
      // systematic skew a stuck PE shows.
      const std::int64_t lane =
          static_cast<std::int64_t>(mix64(f.seed, 0x1A9EULL) % 4);
      const int bit = 1 + static_cast<int>(mix64(f.seed, 0x57CULL) % 6);
      bool changed = false;
      for (std::int64_t r = lane; r < rows; r += 4) {
        for (std::int64_t p = 0; p < n; ++p) {
          std::int32_t& v = at(r, p);
          const std::int32_t m = static_cast<std::int32_t>((cols - v) / 2);
          const std::int32_t stuck = m | (1 << bit);
          if (stuck != m) {
            v = static_cast<std::int32_t>(cols - 2 * stuck);
            changed = true;
          }
        }
      }
      return changed;
    }
    case ComputeFaultKind::kPartialSumCorruption: {
      const std::int64_t r = static_cast<std::int64_t>(
          mix64(f.seed, 0xD0AULL) % static_cast<std::uint64_t>(rows));
      const std::int64_t start = static_cast<std::int64_t>(
          mix64(f.seed, 0xBEEFULL) % static_cast<std::uint64_t>(n));
      const std::int64_t len = std::min<std::int64_t>(8, n - start);
      for (std::int64_t i = 0; i < len; ++i) {
        flip(at(r, start + i),
             static_cast<std::uint32_t>(
                 (mix64(f.seed, 0xDA7AULL + static_cast<std::uint64_t>(i)) |
                  1) &
                 0x7FFFFFFFULL));
      }
      return len > 0;
    }
  }
  return false;
}

// Applies every armed fault targeting `call_index` to the kernel output
// via `apply` and counts the ones that changed it.
template <class ApplyFn>
void fire_faults(KernelFamily family, int call_index, ApplyFn&& apply) {
  Scope::State* s = g_scope;
  if (s == nullptr) return;
  for (const ArmedComputeFault& f : s->opts.faults) {
    if (f.target_call != call_index) continue;
    if (s->opts.attempt >= f.sticky_attempts) continue;
    if (!fault_eligible(f.kind, family)) continue;
    if (apply(f)) ++s->fired;
  }
}

// Bit planes of the column counts: cc_j ≤ rows needs bit_width(rows).
int plane_count(std::int64_t rows) {
  return rows > 0 ? std::bit_width(static_cast<std::uint64_t>(rows)) : 1;
}

}  // namespace

IntegrityMode global_mode() {
  const int cached = g_mode.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<IntegrityMode>(cached);
  const char* env = std::getenv("MPCNN_INTEGRITY");
  const IntegrityMode mode =
      env != nullptr ? parse_mode(env) : IntegrityMode::kOff;
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
  return mode;
}

void set_global_mode(IntegrityMode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

IntegrityMode parse_mode(const char* name) {
  MPCNN_CHECK(name != nullptr, "integrity mode is null");
  if (std::strcmp(name, "off") == 0) return IntegrityMode::kOff;
  if (std::strcmp(name, "sample") == 0) return IntegrityMode::kSample;
  if (std::strcmp(name, "full") == 0) return IntegrityMode::kFull;
  MPCNN_CHECK(false, "unknown integrity mode '"
                         << name << "' (want off|sample|full)");
  return IntegrityMode::kOff;
}

const char* mode_name(IntegrityMode mode) {
  switch (mode) {
    case IntegrityMode::kOff: return "off";
    case IntegrityMode::kSample: return "sample";
    case IntegrityMode::kFull: return "full";
  }
  return "?";
}

std::uint64_t checks_run() {
  return g_checks_run.load(std::memory_order_relaxed);
}

std::uint64_t checks_failed() {
  return g_checks_failed.load(std::memory_order_relaxed);
}

void reset_counters() {
  g_checks_run.store(0, std::memory_order_relaxed);
  g_checks_failed.store(0, std::memory_order_relaxed);
}

Scope::Scope(ScopeOptions options) : state_(new State{std::move(options)}) {
  MPCNN_CHECK(g_scope == nullptr, "integrity scopes do not nest");
  g_scope = state_;
}

Scope::~Scope() {
  g_scope = nullptr;
  delete state_;
}

int Scope::faults_fired() const { return state_->fired; }
int Scope::calls_seen() const { return state_->calls; }

GemmGuard gemm_begin(std::int64_t M, std::int64_t N, float beta,
                     const float* C, const GemmAbftKernels& kernels) {
  const CallGate gate = open_gate();
  GemmGuard guard;
  if (!gate.active) return guard;
  guard.active = true;
  guard.verify = gate.verify;
  guard.call_index = gate.call_index;
  if (guard.verify && beta != 0.0f) {
    // The product overwrites C, so the beta-carried checksum terms must
    // be snapshotted before compute.
    guard.colsum_old.assign(static_cast<std::size_t>(N), 0.0);
    guard.colsum_abs_old.assign(static_cast<std::size_t>(N), 0.0);
    guard.rowsum_old.assign(static_cast<std::size_t>(M), 0.0);
    guard.rowsum_abs_old.assign(static_cast<std::size_t>(M), 0.0);
    const GemmAbftPassFn pass =
        kernels.pass != nullptr ? kernels.pass : &abft_pass_portable;
    pass(C, M, N, nullptr, nullptr, guard.colsum_old.data(),
         guard.colsum_abs_old.data(), guard.rowsum_old.data(),
         guard.rowsum_abs_old.data());
  }
  return guard;
}

void gemm_end(GemmGuard& guard, GemmLayout layout, std::int64_t M,
              std::int64_t N, std::int64_t K, float alpha, const float* A,
              const float* B, float beta, float* C,
              const GemmAbftKernels& kernels) {
  if (!guard.active) return;
  fire_faults(KernelFamily::kGemm, guard.call_index,
              [&](const ArmedComputeFault& f) {
                return apply_gemm_fault(f, M, N, C);
              });
  if (!guard.verify || M == 0 || N == 0) return;
  g_checks_run.fetch_add(1, std::memory_order_relaxed);
  const GemmAbftPassFn pass =
      kernels.pass != nullptr ? kernels.pass : &abft_pass_portable;
  const GemmAbftDotsFn dots =
      kernels.dots != nullptr ? kernels.dots : &abft_dots_portable;

  // Column sums of A (over m) and their absolute counterparts.
  std::vector<double> asum(static_cast<std::size_t>(K), 0.0);
  std::vector<double> asum_abs(static_cast<std::size_t>(K), 0.0);
  pass(A, M, K, nullptr, nullptr, asum.data(), asum_abs.data(), nullptr,
       nullptr);

  // One pass over B yields the column references (asum · B), their
  // |·|-magnitudes, and the row sums of B needed for the row check.
  std::vector<double> col_ref(static_cast<std::size_t>(N), 0.0);
  std::vector<double> col_mag(static_cast<std::size_t>(N), 0.0);
  std::vector<double> bsum(static_cast<std::size_t>(K), 0.0);
  std::vector<double> bsum_abs(static_cast<std::size_t>(K), 0.0);
  if (layout == GemmLayout::kRowMajorB) {
    pass(B, K, N, asum.data(), asum_abs.data(), col_ref.data(),
         col_mag.data(), bsum.data(), bsum_abs.data());
  } else {  // B is N×K: op(B)[k][n] = B[n*K + k]
    dots(B, N, K, asum.data(), asum_abs.data(), col_ref.data(),
         col_mag.data());
    pass(B, N, K, nullptr, nullptr, bsum.data(), bsum_abs.data(), nullptr,
         nullptr);
  }

  const double a_scale = static_cast<double>(alpha);
  const double a_abs = std::fabs(a_scale);
  const double b_scale = static_cast<double>(beta);
  const double b_abs = std::fabs(b_scale);
  const bool carried = beta != 0.0f && !guard.colsum_old.empty();
  for (std::int64_t n = 0; n < N; ++n) {
    const std::size_t un = static_cast<std::size_t>(n);
    col_ref[un] = a_scale * col_ref[un] +
                  (carried ? b_scale * guard.colsum_old[un] : 0.0);
    col_mag[un] = a_abs * col_mag[un] +
                  (carried ? b_abs * guard.colsum_abs_old[un] : 0.0);
  }

  // Row references from the A rows and the B row sums.
  std::vector<double> row_ref(static_cast<std::size_t>(M), 0.0);
  std::vector<double> row_mag(static_cast<std::size_t>(M), 0.0);
  dots(A, M, K, bsum.data(), bsum_abs.data(), row_ref.data(),
       row_mag.data());
  for (std::int64_t m = 0; m < M; ++m) {
    const std::size_t um = static_cast<std::size_t>(m);
    row_ref[um] = a_scale * row_ref[um] +
                  (carried ? b_scale * guard.rowsum_old[um] : 0.0);
    row_mag[um] = a_abs * row_mag[um] +
                  (carried ? b_abs * guard.rowsum_abs_old[um] : 0.0);
  }

  // One pass over the (possibly faulted) product.
  std::vector<double> col_got(static_cast<std::size_t>(N), 0.0);
  std::vector<double> row_got(static_cast<std::size_t>(M), 0.0);
  pass(C, M, N, nullptr, nullptr, col_got.data(), nullptr, row_got.data(),
       nullptr);

  // Random-walk rounding model (DESIGN.md §16): the float kernel's
  // summation error grows ~√(length)·eps·mag, not linearly — a linear
  // bound would mask realistic flips on cancellation-heavy data.  The
  // NaN-robust `!(diff <= tol)` form flags non-finite poison too.
  const double col_scale = kToleranceFactor * kEps32 *
                           (16.0 + std::sqrt(static_cast<double>(K + M)));
  const double row_scale = kToleranceFactor * kEps32 *
                           (16.0 + std::sqrt(static_cast<double>(K + N)));
  for (std::int64_t n = 0; n < N; ++n) {
    const std::size_t un = static_cast<std::size_t>(n);
    const double tol = col_scale * col_mag[un] + 1e-30;
    const double diff = std::fabs(col_got[un] - col_ref[un]);
    if (!(diff <= tol)) {
      deliver(Detection{KernelFamily::kGemm, guard.call_index, n,
                        col_got[un], col_ref[un], tol});
      return;
    }
  }
  for (std::int64_t m = 0; m < M; ++m) {
    const std::size_t um = static_cast<std::size_t>(m);
    const double tol = row_scale * row_mag[um] + 1e-30;
    const double diff = std::fabs(row_got[um] - row_ref[um]);
    if (!(diff <= tol)) {
      deliver(Detection{KernelFamily::kGemm, guard.call_index, -2 - m,
                        row_got[um], row_ref[um], tol});
      return;
    }
  }
}

XnorGuard xnor_begin() {
  const CallGate gate = open_gate();
  XnorGuard guard;
  guard.active = gate.active;
  guard.verify = gate.verify;
  guard.call_index = gate.call_index;
  return guard;
}

std::int64_t xnor_checksum_rows(std::int64_t rows) {
  return 1 + plane_count(rows);
}

// A bit-sliced counter: each data lane's word ripples one carry through
// the planes, so plane k ends up holding bit k of every column's count.
// NP is a template argument so the planes live in registers.
template <int NP>
void count_columns(const std::uint64_t* wt, std::int64_t rows,
                   std::uint64_t* planes) {
  std::uint64_t plane[NP] = {};
  for (std::int64_t r = 0; r < rows; ++r) {
    std::uint64_t carry = wt[r];
    for (int k = 0; k < NP; ++k) {
      const std::uint64_t sum = plane[k] ^ carry;
      carry &= plane[k];
      plane[k] = sum;
    }
  }
  std::copy_n(plane, NP, planes);
}

using CountColumnsFn = void (*)(const std::uint64_t*, std::int64_t,
                                std::uint64_t*);

template <std::size_t... I>
constexpr std::array<CountColumnsFn, sizeof...(I)> count_columns_table(
    std::index_sequence<I...>) {
  return {&count_columns<static_cast<int>(I) + 1>...};
}

void xnor_encode(std::uint64_t* w, std::int64_t cstride, std::int64_t rows,
                 std::int64_t wpr) {
  static constexpr auto kCount =
      count_columns_table(std::make_index_sequence<63>());
  const CountColumnsFn count = kCount[static_cast<std::size_t>(
      plane_count(rows) - 1)];
  for (std::int64_t t = 0; t < wpr; ++t) {
    std::uint64_t* wt = w + t * cstride;
    wt[rows] = 0;
    count(wt, rows, wt + rows + 1);
  }
}

void xnor_end(XnorGuard& guard, std::int64_t rows, std::int64_t cols,
              std::int64_t n, std::int32_t* acc, std::int64_t stride) {
  if (!guard.active) return;
  fire_faults(KernelFamily::kXnorGemm, guard.call_index,
              [&](const ArmedComputeFault& f) {
                return apply_xnor_fault(f, rows, cols, n, acc, stride);
              });
  if (!guard.verify || rows == 0 || n == 0) return;
  g_checks_run.fetch_add(1, std::memory_order_relaxed);

  // In ±1 terms the zero row is all −1 and plane k is 2·bit − 1, so the
  // weight column sums v_j = 2·cc_j − rows are
  //   v = Σ_k 2^k·plane_k + (rows + 1 − 2^nplanes)·zero,
  // and every position's Σ_r acc must equal the same combination of its
  // checksum lanes, exactly.  |Σ_r acc| ≤ rows·cols, so while that
  // bound fits comfortably in 32 bits the sum wraps in 32-bit lanes the
  // baseline compiler can vectorise; the int64 loop covers pathological
  // shapes.
  const int nplanes = plane_count(rows);
  const std::int64_t zero_weight = rows + 1 - (std::int64_t{1} << nplanes);
  const bool narrow = rows * cols <= (std::int64_t{1} << 30);
  for (std::int64_t p = 0; p < n; ++p) {
    const std::int32_t* a = acc + p * stride;
    std::int64_t got = 0;
    if (narrow) {
      // Sixteen independent lanes: four vector adds per step in flight.
      std::uint32_t sum[16] = {};
      std::int64_t r = 0;
      for (; r + 16 <= rows; r += 16) {
        for (int l = 0; l < 16; ++l) {
          sum[l] += static_cast<std::uint32_t>(a[r + l]);
        }
      }
      std::uint32_t total = 0;
      for (; r < rows; ++r) total += static_cast<std::uint32_t>(a[r]);
      for (const std::uint32_t v : sum) total += v;
      got = static_cast<std::int32_t>(total);
    } else {
      for (std::int64_t r = 0; r < rows; ++r) got += a[r];
    }
    std::int64_t ref = zero_weight * a[rows];
    for (int k = 0; k < nplanes; ++k) {
      ref += std::int64_t{a[rows + 1 + k]} << k;
    }
    if (got != ref) {
      deliver(Detection{KernelFamily::kXnorGemm, guard.call_index, p,
                        static_cast<double>(got), static_cast<double>(ref),
                        0.0});
      return;
    }
  }
}

}  // namespace mpcnn::core::integrity
