// Shared word-parallel kernel bodies, included by bitpack.cpp (baseline
// build flags → SWAR popcount), bitpack_popcnt.cpp (-mpopcnt → one
// POPCNT instruction per word), and for the field helpers by
// bitpack_avx2.cpp and compile.cpp.  Every function is `static inline`
// on purpose: each including TU compiles a private copy with its own
// ISA flags, and nothing is emitted into a linker-shared COMDAT section
// — the whole point of per-TU ISA dispatch is that no AVX2/POPCNT code
// can leak into the baseline binary.
//
// __builtin_popcountll (not std::popcount) keeps this header free of
// std templates for the same reason; the two lower identically.
#pragma once

#include <cstdint>

namespace mpcnn::bnn::detail {

static inline std::int64_t bnn_popcount64(std::uint64_t v) {
  return __builtin_popcountll(v);
}

// ---- channels-last pixel fields ----------------------------------------
//
// A field of up to 64 bits may straddle two words.  Both helpers touch
// the word after the field unconditionally (no branch on the straddle),
// which the spare tail word of every channels-last map keeps in bounds.

// Low `count` (1..64) bits starting at `bit`.
static inline std::uint64_t read_field(const std::uint64_t* words,
                                       std::int64_t bit,
                                       std::int64_t count) {
  const std::int64_t wi = bit >> 6;
  const int off = static_cast<int>(bit & 63);
  const std::uint64_t v =
      (words[wi] >> off) | ((words[wi + 1] << 1) << (63 - off));
  return count >= 64 ? v : v & ((std::uint64_t{1} << count) - 1);
}

// ORs v (no bits above the field's width) into the field at `bit`.
static inline void or_field(std::uint64_t* words, std::int64_t bit,
                            std::uint64_t v) {
  const std::int64_t wi = bit >> 6;
  const int off = static_cast<int>(bit & 63);
  words[wi] |= v << off;
  words[wi + 1] |= (v >> 1) >> (63 - off);
}

// ---- xor-popcount rows -------------------------------------------------

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
// independent xor+popcount chains.
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

// ---- all-channel binary conv stage (StageKernelFn xnor_conv) -----------

// Each output channel's mismatch count stays in a register across the
// row's words; a 64-channel chunk of comparisons becomes one pixel word.
static inline void xnor_conv_impl(const std::uint64_t* w,
                                  std::int64_t cstride,
                                  const std::int64_t* bound,
                                  const std::uint64_t* flip,
                                  std::int64_t channels,
                                  const std::uint64_t* patches,
                                  std::int64_t rows, std::int64_t wpr,
                                  std::uint64_t* out) {
  for (std::int64_t p = 0; p < rows; ++p) {
    const std::uint64_t* row = patches + p * wpr;
    for (std::int64_t c0 = 0; c0 < channels; c0 += 64) {
      const std::int64_t n = channels - c0 < 64 ? channels - c0 : 64;
      std::uint64_t bits = 0;
      for (std::int64_t j = 0; j < n; ++j) {
        const std::uint64_t* wc = w + c0 + j;
        std::int64_t m = 0;
        for (std::int64_t t = 0; t < wpr; ++t) {
          m += bnn_popcount64(wc[t * cstride] ^ row[t]);
        }
        bits |= static_cast<std::uint64_t>(m < bound[c0 + j]) << j;
      }
      or_field(out, p * channels + c0, bits ^ flip[c0 >> 6]);
    }
  }
}

}  // namespace mpcnn::bnn::detail
