// Internal BNN kernel dispatch table — not part of the public API.
//
// The packed XNOR engine's inner loops are bound through this table so
// the same binary can run portable SWAR loops on a baseline CPU,
// hardware-POPCNT loops where POPCNT exists, 256-bit kernels under AVX2
// and 512-bit ones under AVX-512.  Two slots run whole engine stages
// over channels-last data: one call per stage computes every output
// channel of every position, each position's channels as one C-bit
// pixel field.  The binary one also has an accumulator-writing mode, the
// checked product behind xnor_gemm and the engine's ABFT path, whose
// extra lanes carry core/integrity's checksum rows.  xor_pop serves
// single dot products.  Everything here is exact integer arithmetic, so
// *every* variant returns identical values — the dispatch tests compare
// whole-network outputs across forced ISA levels.
//
// Stage kernels read their patch rows straight from the stage's input
// (PatchSource); no patch matrix is ever written.  They share one
// per-call layout, rebuilt by the caller on every call:
//  - a patch row is K runs, one per kernel row, and each run starts on a
//    word: word kh·wpj + j holds units [j·U, (j + 1)·U) of run kh, with
//    U = 64 bits (8 bytes for byte_conv), wpj = ⌈K·C / U⌉ and zero units
//    past the run — the kernels mask every run's last word;
//  - word t of weight lane c sits at w[t·cstride + c], in the same run
//    layout (lanes as the fast axis, cstride a multiple of 4, zero past
//    the last lane), so four adjacent lanes fill one 256-bit vector.
//    Zero padding on both sides never mismatches, so a binary row's dot
//    length stays its weight row's column count.
// The thresholding kernels write pixel fields into a channels-last bit
// map that is zero where they write and has one spare word past its last
// pixel.
//
// Keep this header dependency-free (<cstdint> only): it is included by
// ISA-flagged TUs (bitpack_popcnt.cpp, bitpack_avx2.cpp,
// bitpack_avx512.cpp), and any inline function such a TU emits into a
// shared COMDAT could be picked by the linker for the whole binary,
// smuggling AVX2/AVX-512/POPCNT code onto CPUs without them.
#pragma once

#include <cstdint>

namespace mpcnn::bnn::detail {

/// Where a stage kernel reads its patch rows: the K×K windows (stride 1,
/// no padding) of a channels-last map `in_w` pixels wide whose pixels
/// are `c` units — bits of a bit map, or quantised pixel bytes for
/// byte_conv.  Row p is the window at output position
/// (p / out_w, p % out_w); there are `rows` of them.  The kernels may
/// read the 8 bytes from the start of any word of a row, so the map
/// keeps one spare word past its last pixel (a matrix of word-aligned
/// rows, K = 1 and c a multiple of 64, needs none).
struct PatchSource {
  const std::uint64_t* map;
  std::int64_t c;
  std::int64_t in_w;
  std::int64_t k;
  std::int64_t out_w;
  std::int64_t rows;
};

/// Σ popcount(a[t] ^ b[t]) over nwords words.
using XorPopFn = std::int64_t (*)(const std::uint64_t* a,
                                  const std::uint64_t* b,
                                  std::int64_t nwords);

/// A stage kernel thresholds every patch row of `src` against every
/// output channel in one call: row p's pixel — bit c fires when channel
/// c's verdict differs from negate bit c of `flip` (one word per 64
/// channels) — goes to bits [p·channels, (p+1)·channels) of `out`.
///
///  - xnor_conv (binary conv or dense): the verdict is m < bound[c], with
///    m = Σ_t popcount(w[t·cstride + c] ^ row[t]) the mismatch count.
///  - byte_conv (fixed-point first stage): the units are pixel bytes and
///    byte k of w[t·cstride + c] is +1 when the weight column of row
///    byte k of word t is set and −1 otherwise (either past the run);
///    the verdict is Σ pixel byte · weight byte > bound[c].  The sum and
///    every bound must fit int32 (the SIMD kernels sum 32-bit lanes).
using StageKernelFn = void (*)(const std::uint64_t* w, std::int64_t cstride,
                               const std::int64_t* bound,
                               const std::uint64_t* flip,
                               std::int64_t channels, const PatchSource& src,
                               std::uint64_t* out);

/// Accumulator mode of xnor_conv: for patch row p and every lane
/// c < lanes, acc[p·cstride + c] = nbits − 2·m, the bipolar dot of lane
/// c's row and the patch (m as above).  The lanes are the weight rows
/// plus whatever rows the caller appended; cstride ≥ lanes rounded up
/// to 4, and the lanes up to that rounding may be written too.
using XnorAccFn = void (*)(const std::uint64_t* w, std::int64_t cstride,
                           std::int64_t lanes, const PatchSource& src,
                           std::int64_t nbits, std::int32_t* acc);

struct BnnKernels {
  const char* pop_name;   ///< xnor_conv/xnor_acc: "scalar", "popcnt",
                          ///< "avx2", "avx512"
  const char* dot_name;   ///< xor_pop: "scalar", "popcnt", "avx2"
  const char* byte_name;  ///< byte_conv: "portable", "avx2", "avx512"
  XorPopFn xor_pop;
  StageKernelFn xnor_conv;
  XnorAccFn xnor_acc;
  StageKernelFn byte_conv;
};

/// Table bound to the active ISA level (rebinds after core::refresh_isa).
/// scalar → SWAR popcounts and the portable byte conv;
/// sse2   → POPCNT popcounts when the CPU has POPCNT, portable byte conv;
/// avx2   → 256-bit nibble-LUT popcounts and the VPMADDUBSW byte conv;
/// avx512 → VPOPCNTQ stage kernels, the VPDPBUSD byte conv and AVX2's
///          xor_pop.
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
extern const BnnPopFns kBnnPopAvx512;  ///< bitpack_avx512.cpp (-mavx512*),
                                       ///< stage kernels only (null xor_pop)
extern const StageKernelFn kByteConvAvx512;  ///< bitpack_avx512.cpp

}  // namespace mpcnn::bnn::detail
