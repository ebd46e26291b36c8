// Internal BNN kernel dispatch table — not part of the public API.
//
// The packed XNOR engine's inner loops (xor-popcount rows, quad-row
// register blocks, PSADBW byte sums for the fixed-point first stage) are
// bound through this table so the same binary can run the portable SWAR
// loops on a baseline CPU, hardware-POPCNT loops where POPCNT exists,
// and 256-bit VPSHUFB nibble-LUT popcounts under AVX2.  Everything here
// is exact integer arithmetic, so *every* variant returns identical
// values — the dispatch tests compare whole-network outputs across
// forced ISA levels.
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

/// Quad-row mismatch counts: m[r] = Σ popcount(w_r[t] ^ p[t]) for the
/// four weight rows starting at w with stride wstride words.  The four
/// rows share every patch-word load.
using XorPop4Fn = void (*)(const std::uint64_t* w, std::int64_t wstride,
                           const std::uint64_t* p, std::int64_t nwords,
                           std::int64_t m[4]);

/// Σ p[i] over nbytes bytes (byte-image horizontal sum).
using ByteSumFn = std::int64_t (*)(const std::uint8_t* p,
                                   std::int64_t nbytes);

/// Σ (p[i] & w[i]) over nbytes bytes, w being a 0x00/0xFF mask row.
using MaskedByteSumFn = std::int64_t (*)(const std::uint8_t* p,
                                         const std::uint8_t* w,
                                         std::int64_t nbytes);

/// Quad-channel masked sums: sums[r] = Σ (p[i] & w_r[i]) for the four
/// mask rows starting at w with stride wstride bytes.  The four rows
/// share every patch-byte load, so the byte-conv stage runs one patch
/// pass per four output channels instead of four.
using MaskedByteSum4Fn = void (*)(const std::uint8_t* p,
                                  const std::uint8_t* w,
                                  std::int64_t wstride, std::int64_t nbytes,
                                  std::int64_t sums[4]);

struct BnnKernels {
  const char* pop_name;  ///< popcount variant: "scalar", "popcnt", "avx2"
  const char* sum_name;  ///< byte-conv variant: "none", "sse2", "avx2"
  XorPopFn xor_pop;
  XorPop4Fn xor_pop4;
  ByteSumFn byte_sum;            ///< null when sum_name == "none"
  MaskedByteSumFn masked_byte_sum;  ///< null when sum_name == "none"
  /// Null where the ISA lacks the registers to carry four wide
  /// accumulators (scalar, SSE2); the executor then loops channels
  /// one at a time.
  MaskedByteSum4Fn masked_byte_sum4;
};

/// Table bound to the active ISA level (rebinds after core::refresh_isa).
/// scalar → SWAR everything, byte-conv disabled (bit-plane first stage);
/// sse2   → PSADBW byte conv, POPCNT popcounts when the CPU has POPCNT;
/// avx2   → 256-bit popcount + SAD paths.
const BnnKernels& kernels();

/// ISA-TU exports.  Function pointers are null when the TU was built
/// without its ISA (non-x86); the dispatcher then falls back.
struct BnnPopFns {
  XorPopFn xor_pop;
  XorPop4Fn xor_pop4;
};
struct BnnSumFns {
  ByteSumFn byte_sum;
  MaskedByteSumFn masked_byte_sum;
  MaskedByteSum4Fn masked_byte_sum4;
};

extern const BnnPopFns kBnnPopPopcnt;  ///< bitpack_popcnt.cpp (-mpopcnt)
extern const BnnPopFns kBnnPopAvx2;    ///< bitpack_avx2.cpp (-mavx2)
extern const BnnSumFns kBnnSumAvx2;    ///< bitpack_avx2.cpp (-mavx2)

}  // namespace mpcnn::bnn::detail
