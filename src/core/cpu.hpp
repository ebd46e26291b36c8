// Runtime CPU-feature detection and the kernel dispatch registry.
//
// The paper's throughput argument needs each datapath running as fast as
// the *actual* hardware allows, but a shipped binary cannot assume AVX2:
// ISA-specific kernels are compiled in dedicated translation units with
// per-file flags (see DESIGN.md §11) and bound through function pointers
// at startup.  This header owns the one-time feature probe, the active
// ISA level, and a small introspection registry so `mpcnn_cli cpuinfo`
// can print exactly which variant each dispatch slot resolved to.
//
// ISA levels (cumulative, coarse by design):
//   scalar — portable C++ only: SWAR popcount, autovectorised GEMM tile.
//   sse2   — x86-64 baseline paths (PSADBW byte conv) plus hardware
//            POPCNT kernels when the CPU reports POPCNT.
//   avx2   — 256-bit VPSHUFB nibble-LUT popcount, the 256-bit float GEMM
//            tile, the A·Bᵀ panel tile and the ABFT epilogue passes.
//            Requires AVX2 (+POPCNT for the bit kernels).
//   avx512 — VPOPCNTQ binary stage kernels, the VPDPBUSD byte stage and
//            the 512-bit float GEMM tile; the A·Bᵀ tile and the ABFT
//            passes stay on AVX2.  Requires AVX-512 F, BW, VL, VPOPCNTDQ
//            and VNNI on top of avx2.
//   Both GEMM tiles are one template (tensor/gemm_tile_impl.hpp) that
//   forms α·A[i][k] once per row block, rounded to float as the portable
//   tile rounds it, so every level's float results stay bit-identical.
//
// `MPCNN_ISA=scalar|sse2|avx2|avx512` forces a level; forcing a level the CPU
// cannot execute (or an unknown name) throws Error.  The level is
// resolved once on first use; tests that flip MPCNN_ISA in-process call
// refresh_isa(), which bumps a generation counter that every dispatch
// table checks before handing out kernel pointers.
#pragma once

#include <string>
#include <vector>

namespace mpcnn::core {

/// One-time CPUID probe results (immutable for the process lifetime).
struct CpuFeatures {
  bool sse2 = false;
  bool popcnt = false;
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512vl = false;
  bool avx512vpopcntdq = false;
  bool avx512vnni = false;
};

/// Detected features of the host CPU (probed once, then cached).
const CpuFeatures& cpu_features();

/// Dispatch levels, ordered; higher levels require CPU support.
enum class Isa { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAvx512 = 3 };

/// Lower-case level name ("scalar", "sse2", "avx2", "avx512").
const char* isa_name(Isa isa);

/// Every level MPCNN_ISA may force on this CPU, in ascending order
/// (scalar first).  The one definition of "levels this CPU runs": tests,
/// sweeps, benches and `mpcnn_cli cpuinfo` all iterate this list.
std::vector<Isa> supported_isas();

/// The active dispatch level: MPCNN_ISA if set (validated against the
/// CPU), otherwise the best level the CPU supports.  Resolved once;
/// throws Error if MPCNN_ISA names an unknown or unsupported level.
Isa active_isa();

/// True if the environment variable MPCNN_ISA is set (cpuinfo reporting).
bool isa_forced();

/// Re-reads MPCNN_ISA and re-resolves the active level.  Bumps the
/// dispatch generation so every kernel table rebinds on next use.  Test
/// hook — production code resolves once at startup and never refreshes.
void refresh_isa();

/// Monotonic counter bumped by refresh_isa(); dispatch tables compare it
/// against the generation they were bound at and rebind when stale.
int isa_generation();

/// Human-readable signature of (features, active level) — the key bench
/// gates use to tell machines apart, e.g.
/// "x86-64 sse2+popcnt+avx2+fma isa=avx2"; AVX-512 hosts also name
/// avx512f, avx512bw, avx512vl, avx512vpopcntdq and avx512vnni.
std::string cpu_signature();

/// --- dispatch-slot introspection -----------------------------------
/// Kernel owners (tensor/gemm.cpp, bnn/bitpack.cpp) register each slot
/// with a callback returning the currently-bound variant name; cpuinfo
/// walks the registry.  Registration happens from namespace-scope
/// initialisers in the owning TUs, so any binary that links a kernel
/// also sees its slots.

struct KernelBinding {
  std::string slot;     ///< e.g. "gemm.tile"
  std::string variant;  ///< e.g. "avx2" — evaluated at query time
};

/// Registers a dispatch slot; `variant` is called on every query so the
/// answer tracks refresh_isa().  Returns true (usable as a static init).
bool register_kernel_slot(const char* slot, const char* (*variant)());

/// Snapshot of every registered slot with its currently-bound variant,
/// sorted by slot name for stable cpuinfo output.
std::vector<KernelBinding> kernel_bindings();

}  // namespace mpcnn::core
