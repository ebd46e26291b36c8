// Algorithm-based fault tolerance (ABFT) for the compute kernels.
//
// PR 4/5/9 defend *stored* state — CRC weight scrubbing, framed
// artifacts, replica failover — but a fault struck mid-computation (a
// flipped accumulator bit inside xnor_gemm, a popcount lane stuck at
// one, a corrupted partial-sum DMA burst) produces a silently wrong
// label that passes every one of those checks.  This module closes that
// gap with Huang–Abraham style checksum verification bolted onto the
// two kernel families everything lowers to:
//
//   * float GEMM (gemm / gemm_at / gemm_bt, every ISA variant): the
//     epilogue cross-checks row and column sums of C against references
//     accumulated in double from A, B and the beta-carried old C.  Float
//     arithmetic reorders under blocking/FMA, so the check is tolerance
//     bounded by a random-walk rounding model with a fixed factor
//     (DESIGN.md §16).
//   * packed xnor_gemm (every popcount variant): ±1 arithmetic is exact
//     integer math, so the column-sum identity
//         Σ_r C[r][p] = Σ_j v[j]·b̃_p[j],   v[j] = 2·colcount_j − rows
//     must hold bit-exactly.  The weight-side column counts are cached
//     per content hash (an SEU-mutated fabric copy rebuilds its own
//     reference), which makes this a *datapath* check by construction:
//     memory corruption stays the CRC scrubber's job (DESIGN.md §16).
//
// Hot-path cost model: IntegrityMode::kOff is one thread-local load and
// one relaxed atomic load per kernel call.  kSample verifies a
// deterministic 1-in-sample_period subset of calls (hash of the scope
// token and the per-scope call ordinal — no shared counters, so the
// decision replays bit-identically at any thread count).  kFull
// verifies everything.
//
// Scopes also carry *armed compute faults* (core/fault.hpp lowers its
// FaultWindows to ArmedComputeFault): the fault mutates the kernel's
// output between compute and verify, emulating a datapath SEU the way
// apply_seu emulates a memory SEU.  Faults fire even in kOff — an
// undefended fabric serves the corruption, which is the motivating
// failure mode.
//
// This header is included by ISA-flagged and tensor-level TUs, so it
// stays dependency-light: raw pointers and <cstdint> only, no
// bnn/tensor types.
#pragma once

#include <cstdint>
#include <vector>

namespace mpcnn::core::integrity {

enum class IntegrityMode {
  kOff,     ///< no verification (faults still fire)
  kSample,  ///< verify a deterministic 1-in-sample_period subset of calls
  kFull,    ///< verify every call
};

/// Process-wide mode for kernel calls made outside any Scope; resolved
/// once from MPCNN_INTEGRITY (off|sample|full, default off).  Without a
/// scope a mismatch throws mpcnn::Error — fail-stop for callers that
/// never installed a re-execution ladder.
IntegrityMode global_mode();
void set_global_mode(IntegrityMode mode);

/// Parses "off" | "sample" | "full" (throws Error otherwise).
IntegrityMode parse_mode(const char* name);
const char* mode_name(IntegrityMode mode);

/// Datapath fault taxonomy (the compute-side complement of
/// core::FaultKind's storage/transport faults).
enum class ComputeFaultKind {
  kAccumulatorBitFlip,    ///< one output accumulator takes a bit flip
  kPopcountLaneStuck,     ///< one of the 4 quad-popcount lanes sticks a bit
  kPartialSumCorruption,  ///< a DMA burst of ~8 partial sums is garbled
};

/// One fault lowered from a FaultWindow and armed on a Scope.  All
/// targeting decisions hash from `seed`, so replay is bit-exact.
struct ArmedComputeFault {
  ComputeFaultKind kind = ComputeFaultKind::kAccumulatorBitFlip;
  std::uint64_t seed = 0;
  /// Fires on the target_call'th hooked kernel call of the scope (when
  /// that call's family is eligible for `kind`).
  int target_call = 0;
  /// Re-execution attempts the fault persists for: 1 = transient (a
  /// verified re-run comes back clean), >= 2 = persistent (the fabric
  /// retry fails too and the supervisor escalates to the host).
  int sticky_attempts = 1;
};

enum class KernelFamily { kGemm, kXnorGemm };

/// One checksum mismatch caught in a kernel epilogue.
struct Detection {
  KernelFamily family = KernelFamily::kGemm;
  int call_index = 0;   ///< per-scope ordinal of the offending call
  std::int64_t lane = 0;  ///< column lane n, or -2-m for row lane m
  double got = 0.0;
  double ref = 0.0;
  double tolerance = 0.0;  ///< 0 for the exact integer paths
};

struct ScopeOptions {
  IntegrityMode mode = IntegrityMode::kOff;
  /// Deterministic sampling stream (the supervisor uses a hash of
  /// (seed, dispatch, slot)).
  std::uint64_t token = 0;
  /// Re-execution attempt index (faults with sticky_attempts <= attempt
  /// no longer fire).
  int attempt = 0;
  std::int64_t sample_period = 8;
  std::vector<ArmedComputeFault> faults;
  /// Mismatches land here; with a null sink they throw mpcnn::Error.
  std::vector<Detection>* sink = nullptr;
};

/// RAII thread-local verification context.  The supervisor arms one
/// scope per (dispatch, batch slot) serially before fanning out, then
/// aggregates the per-slot sinks in slot order — that, plus hash-based
/// sampling, is what keeps detection replay bit-identical at any thread
/// count.  Scopes do not nest.
class Scope {
 public:
  explicit Scope(ScopeOptions options);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Armed faults that actually mutated a kernel output in this scope.
  int faults_fired() const;
  /// Hooked kernel calls seen by this scope.
  int calls_seen() const;

  struct State;  // implementation detail (integrity.cpp)

 private:
  State* state_;
};

/// True when kernels and engines should take the instrumented path: a
/// scope with mode != off or armed faults is active on this thread, or
/// the global mode is != off.  The packed BNN engine consults this to
/// route its fused conv/dense loops through the checked xnor_gemm
/// (identical integer accumulators, so outputs are bit-identical).
bool instrumented();

// ---- process-global counters (relaxed; informational) ----
std::uint64_t checks_run();      ///< kernel calls verified
std::uint64_t checks_failed();   ///< calls with >= 1 checksum mismatch
void reset_counters();

// ---- kernel hooks -------------------------------------------------
// Called by the public gemm/xnor_gemm wrappers.  begin() is the cheap
// gate; an inactive guard makes end() a no-op.

struct GemmGuard {
  bool active = false;
  bool verify = false;
  int call_index = 0;
  // beta-carried checksums of the old C, snapshotted before compute.
  std::vector<double> colsum_old, colsum_abs_old;
  std::vector<double> rowsum_old, rowsum_abs_old;
};

enum class GemmLayout {
  kRowMajorB,    ///< B is K×N row-major (gemm)
  kTransposedB,  ///< B is N×K row-major (gemm_bt)
};

/// ABFT reduction passes supplied by the caller so the epilogue rides
/// the caller's ISA dispatch (mirrors the XorPopcountFn idiom below;
/// signatures match tensor/gemm_kernels.hpp, redeclared here to keep
/// this header free of tensor includes).  Null pointers fall back to
/// the portable loops, which the accelerated variants reproduce
/// bit-exactly: per-row weighted column accumulation plus stride-4-lane
/// row sums folded (l0+l1)+(l2+l3), tail into lane 0.
using GemmAbftPassFn = void (*)(const float* m, std::int64_t rows,
                                std::int64_t cols, const double* row_w,
                                const double* row_w_abs, double* col_acc,
                                double* col_abs, double* row_sum,
                                double* row_abs);
using GemmAbftDotsFn = void (*)(const float* m, std::int64_t rows,
                                std::int64_t cols, const double* w,
                                const double* w_abs, double* dots,
                                double* dots_abs);
struct GemmAbftKernels {
  GemmAbftPassFn pass = nullptr;
  GemmAbftDotsFn dots = nullptr;
};

GemmGuard gemm_begin(std::int64_t M, std::int64_t N, float beta,
                     const float* C,
                     const GemmAbftKernels& kernels = GemmAbftKernels{});
void gemm_end(GemmGuard& guard, GemmLayout layout, std::int64_t M,
              std::int64_t N, std::int64_t K, float alpha, const float* A,
              const float* B, float beta, float* C,
              const GemmAbftKernels& kernels = GemmAbftKernels{});

/// Σ popcount(a[t] ^ b[t]) over nwords — matches bnn::detail::XorPopFn,
/// redeclared here to keep this header free of bnn includes.  The caller
/// passes its active dispatch variant so the checksum reference rides
/// the same ISA acceleration as the kernel it guards.
using XorPopcountFn = std::int64_t (*)(const std::uint64_t*,
                                       const std::uint64_t*, std::int64_t);

/// Quad-row variant (matches bnn::detail::XorPop4Fn): m[r] =
/// Σ popcount(w_r[t] ^ p[t]) for the four rows starting at w with
/// stride wstride words — the plane sweep runs one patch pass per four
/// checksum bit-planes instead of four.  Optional; null falls back to
/// four XorPopcountFn calls.
using XorPopcount4Fn = void (*)(const std::uint64_t* w, std::int64_t wstride,
                                const std::uint64_t* p, std::int64_t nwords,
                                std::int64_t m[4]);

struct XnorGuard {
  bool active = false;
  bool verify = false;
  int call_index = 0;
};

XnorGuard xnor_begin();
/// a: packed ±1 weights, `rows` rows of `wpr` words covering `cols`
/// bits (padding bits zero); b: packed patches, `n` rows with the same
/// word count; c: rows×n int32 accumulators (cols − 2·mismatches).
void xnor_end(XnorGuard& guard, const std::uint64_t* a, std::int64_t rows,
              std::int64_t cols, std::int64_t wpr, const std::uint64_t* b,
              std::int64_t n, std::int32_t* c, XorPopcountFn xor_pop,
              XorPopcount4Fn xor_pop4 = nullptr);

}  // namespace mpcnn::core::integrity
