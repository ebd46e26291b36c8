// Shared word-parallel kernel bodies, included by bitpack.cpp (baseline
// build flags → SWAR popcount) and bitpack_popcnt.cpp (-mpopcnt → one
// POPCNT instruction per word).  Every function is `static inline` on
// purpose: each including TU compiles a private copy with its own ISA
// flags, and nothing is emitted into a linker-shared COMDAT section —
// the whole point of per-TU ISA dispatch is that no AVX2/POPCNT code can
// leak into the baseline binary.
//
// __builtin_popcountll (not std::popcount) keeps this header free of
// std templates for the same reason; the two lower identically.
#pragma once

#include <cstdint>

namespace mpcnn::bnn::detail {

static inline std::int64_t bnn_popcount64(std::uint64_t v) {
  return __builtin_popcountll(v);
}

// Two accumulators keep independent popcount dependency chains in
// flight; rows are at most a few words, so no deeper unroll pays off.
static inline std::int64_t xor_pop_impl(const std::uint64_t* a,
                                        const std::uint64_t* b,
                                        std::int64_t nwords) {
  std::int64_t m0 = 0, m1 = 0;
  std::int64_t t = 0;
  for (; t + 2 <= nwords; t += 2) {
    m0 += bnn_popcount64(a[t] ^ b[t]);
    m1 += bnn_popcount64(a[t + 1] ^ b[t + 1]);
  }
  if (t < nwords) m0 += bnn_popcount64(a[t] ^ b[t]);
  return m0 + m1;
}

// Four weight rows against one patch row: one load of p[t] feeds four
// independent xor+popcount chains (the register blocking PR 2 used
// inline, now shared through the dispatch table).
static inline void xor_pop4_impl(const std::uint64_t* w,
                                 std::int64_t wstride,
                                 const std::uint64_t* p,
                                 std::int64_t nwords, std::int64_t m[4]) {
  const std::uint64_t* w0 = w;
  const std::uint64_t* w1 = w + wstride;
  const std::uint64_t* w2 = w + 2 * wstride;
  const std::uint64_t* w3 = w + 3 * wstride;
  std::int64_t m0 = 0, m1 = 0, m2 = 0, m3 = 0;
  for (std::int64_t t = 0; t < nwords; ++t) {
    const std::uint64_t pv = p[t];
    m0 += bnn_popcount64(w0[t] ^ pv);
    m1 += bnn_popcount64(w1[t] ^ pv);
    m2 += bnn_popcount64(w2[t] ^ pv);
    m3 += bnn_popcount64(w3[t] ^ pv);
  }
  m[0] = m0;
  m[1] = m1;
  m[2] = m2;
  m[3] = m3;
}

}  // namespace mpcnn::bnn::detail
