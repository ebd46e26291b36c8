// Internal BNN kernel dispatch table — not part of the public API.
//
// The packed XNOR engine's inner loops are bound through this table so
// the same binary can run portable SWAR loops on a baseline CPU,
// hardware-POPCNT loops where POPCNT exists, and 256-bit kernels under
// AVX2.  Two slots run whole engine stages over channels-last data: one
// call per stage computes every output channel of every position, each
// position's channels as one C-bit pixel field.  The binary one also has
// an accumulator-writing mode, the checked product behind xnor_gemm and
// the engine's ABFT path, whose extra lanes carry core/integrity's
// checksum rows.  xor_pop serves single dot products.  Everything here
// is exact integer arithmetic, so *every* variant returns identical
// values — the dispatch tests compare whole-network outputs across
// forced ISA levels.
//
// Stage kernels share one weight layout, rebuilt by the caller on every
// call: word t of lane c sits at w[t·cstride + c] (lanes as the fast
// axis, cstride a multiple of 4, zero past the last lane), so four
// adjacent lanes fill one 256-bit vector.  The thresholding kernels
// write pixel fields into a channels-last bit map that is zero where
// they write and has one spare word past its last pixel.
//
// Keep this header dependency-free (<cstdint> only): it is included by
// ISA-flagged TUs (bitpack_popcnt.cpp, bitpack_avx2.cpp), and any inline
// function such a TU emits into a shared COMDAT could be picked by the
// linker for the whole binary, smuggling AVX2/POPCNT code onto CPUs
// without them.
#pragma once

#include <cstdint>

namespace mpcnn::bnn::detail {

/// Σ popcount(a[t] ^ b[t]) over nwords words.
using XorPopFn = std::int64_t (*)(const std::uint64_t* a,
                                  const std::uint64_t* b,
                                  std::int64_t nwords);

/// A stage kernel thresholds every patch row against every output
/// channel in one call: patch row p is `nwords` words at
/// patches + p·nwords, and its pixel — bit c fires when channel c's
/// verdict differs from negate bit c of `flip` (one word per 64
/// channels) — goes to bits [p·channels, (p+1)·channels) of `out`.
///
///  - xnor_conv (binary conv or dense): the verdict is m < bound[c], with
///    m = Σ_t popcount(w[t·cstride + c] ^ row[t]) the mismatch count.
///  - byte_conv (fixed-point first stage): each row holds the pixel
///    bytes of one patch (byte k of word t is patch byte 8t + k, zero
///    past the patch); byte k of w[t·cstride + c] is +1 when weight
///    column 8t + k is set and −1 otherwise; the verdict is
///    Σ pixel byte · weight byte > bound[c].  The sum and every bound
///    must fit int32 (AVX2 compares 32-bit lanes).
using StageKernelFn = void (*)(const std::uint64_t* w, std::int64_t cstride,
                               const std::int64_t* bound,
                               const std::uint64_t* flip,
                               std::int64_t channels,
                               const std::uint64_t* patches,
                               std::int64_t rows, std::int64_t nwords,
                               std::uint64_t* out);

/// Accumulator mode of xnor_conv: for patch row p and every lane
/// c < lanes, acc[p·cstride + c] = nbits − 2·m, the bipolar dot of lane
/// c's row and the patch (m as above).  The lanes are the weight rows
/// plus whatever rows the caller appended; cstride ≥ lanes rounded up
/// to 4, and the lanes up to that rounding may be written too.
using XnorAccFn = void (*)(const std::uint64_t* w, std::int64_t cstride,
                           std::int64_t lanes, const std::uint64_t* patches,
                           std::int64_t rows, std::int64_t nwords,
                           std::int64_t nbits, std::int32_t* acc);

struct BnnKernels {
  const char* pop_name;   ///< xor_pop/xnor_conv/xnor_acc: "scalar",
                          ///< "popcnt", "avx2"
  const char* byte_name;  ///< byte_conv: "portable", "avx2"
  XorPopFn xor_pop;
  StageKernelFn xnor_conv;
  XnorAccFn xnor_acc;
  StageKernelFn byte_conv;
};

/// Table bound to the active ISA level (rebinds after core::refresh_isa).
/// scalar → SWAR popcounts and the portable byte conv;
/// sse2   → POPCNT popcounts when the CPU has POPCNT, portable byte conv;
/// avx2   → 256-bit nibble-LUT popcounts and the VPMADDUBSW byte conv.
const BnnKernels& kernels();

/// ISA-TU exports.  Function pointers are null when the TU was built
/// without its ISA (non-x86); the dispatcher then falls back.
struct BnnPopFns {
  XorPopFn xor_pop;
  StageKernelFn xnor_conv;
  XnorAccFn xnor_acc;
};

extern const BnnPopFns kBnnPopPopcnt;  ///< bitpack_popcnt.cpp (-mpopcnt)
extern const BnnPopFns kBnnPopAvx2;    ///< bitpack_avx2.cpp (-mavx2)
extern const StageKernelFn kByteConvAvx2;  ///< bitpack_avx2.cpp (-mavx2)

}  // namespace mpcnn::bnn::detail
