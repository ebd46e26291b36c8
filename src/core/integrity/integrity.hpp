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
//   * the packed XNOR product (xnor_gemm and the packed engine's
//     checked stages, every popcount variant): ±1 arithmetic is exact
//     integer math, so the column-sum identity
//         Σ_r C[r][p] = Σ_j v[j]·b̃_p[j],   v[j] = 2·colcount_j − rows
//     must hold bit-exactly.  v is encoded as checksum rows appended to
//     the executed weights (a zero row and the bit planes of the column
//     counts), so the same kernel computes the reference as extra lanes
//     and an SEU-mutated fabric copy encodes its own, consistent
//     checksum: this is a *datapath* check by construction, and memory
//     corruption stays the CRC scrubber's job (DESIGN.md §16).
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
  kPopcountLaneStuck,     ///< channels ≡ lane (mod 4) stick a count bit
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
/// the caller's ISA dispatch (signatures match tensor/gemm_kernels.hpp,
/// redeclared here to keep this header free of tensor includes).  Null
/// pointers fall back to the portable loops, which the accelerated
/// variants reproduce bit-exactly: per-row weighted column accumulation
/// plus stride-4-lane row sums folded (l0+l1)+(l2+l3), tail into lane 0.
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

// ---- xnor hook ----------------------------------------------------
//
// The checked XNOR product (bnn::checked_xnor) works in lane layout:
// acc holds n positions of `stride` int32 lanes, lane r < rows being
// cols − 2·mismatches of weight row r at that position.  A verified
// call appends the checksum rows as lanes rows, rows + 1, …, so one
// kernel pass yields each position's reference Σ_r acc as a fixed
// linear combination of those lanes.

struct XnorGuard {
  bool active = false;  ///< faults may fire: take the checked product
  bool verify = false;  ///< append checksum rows and check
  int call_index = 0;
};

XnorGuard xnor_begin();

/// Checksum rows a verified call appends to `rows` weight rows: one
/// zero row and the bit_width(rows) bit planes of the column counts.
std::int64_t xnor_checksum_rows(std::int64_t rows);

/// Fills the checksum rows of transposed weights in place (word t of
/// lane r at w[t·cstride + r], `wpr` words per row, padding bits zero):
/// reads the `rows` data lanes, writes the xnor_checksum_rows(rows)
/// lanes after them.
void xnor_encode(std::uint64_t* w, std::int64_t cstride, std::int64_t rows,
                 std::int64_t wpr);

/// Fires this call's armed faults into the data lanes of acc (`n`
/// positions of `stride` lanes; `cols` is the dot length); a verifying
/// guard then checks the positions in ascending order against their
/// checksum lanes and reports the first mismatch.
void xnor_end(XnorGuard& guard, std::int64_t rows, std::int64_t cols,
              std::int64_t n, std::int32_t* acc, std::int64_t stride);

}  // namespace mpcnn::core::integrity
