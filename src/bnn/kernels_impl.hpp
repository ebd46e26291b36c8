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

// ---- all-channel binary conv stage (xnor_conv, xnor_acc) ---------------

// Mismatch counts of the four adjacent lanes at w (word t of lane q at
// w[t·cstride + q]) against one row: each row word is loaded once for
// four independent popcount chains.
static inline void lane_mismatches4(const std::uint64_t* w,
                                    std::int64_t cstride,
                                    const std::uint64_t* row,
                                    std::int64_t wpr, std::int64_t m[4]) {
  std::int64_t m0 = 0, m1 = 0, m2 = 0, m3 = 0;
  for (std::int64_t t = 0; t < wpr; ++t) {
    const std::uint64_t pv = row[t];
    const std::uint64_t* wt = w + t * cstride;
    m0 += bnn_popcount64(wt[0] ^ pv);
    m1 += bnn_popcount64(wt[1] ^ pv);
    m2 += bnn_popcount64(wt[2] ^ pv);
    m3 += bnn_popcount64(wt[3] ^ pv);
  }
  m[0] = m0;
  m[1] = m1;
  m[2] = m2;
  m[3] = m3;
}

// Each output channel's mismatch count stays in a register across the
// row's words; a 64-channel chunk of comparisons becomes one pixel word.
// Padding lanes (zero weights, bound 0) never fire.
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
      for (std::int64_t j = 0; j < n; j += 4) {
        std::int64_t m[4];
        lane_mismatches4(w + c0 + j, cstride, row, wpr, m);
        for (int q = 0; q < 4; ++q) {
          bits |= static_cast<std::uint64_t>(m[q] < bound[c0 + j + q])
                  << (j + q);
        }
      }
      or_field(out, p * channels + c0, bits ^ flip[c0 >> 6]);
    }
  }
}

static inline void xnor_acc_impl(const std::uint64_t* w,
                                 std::int64_t cstride, std::int64_t lanes,
                                 const std::uint64_t* patches,
                                 std::int64_t rows, std::int64_t wpr,
                                 std::int64_t nbits, std::int32_t* acc) {
  for (std::int64_t p = 0; p < rows; ++p) {
    const std::uint64_t* row = patches + p * wpr;
    std::int32_t* out = acc + p * cstride;
    for (std::int64_t c = 0; c < lanes; c += 4) {
      std::int64_t m[4];
      lane_mismatches4(w + c, cstride, row, wpr, m);
      for (int q = 0; q < 4; ++q) {
        out[c + q] = static_cast<std::int32_t>(nbits - 2 * m[q]);
      }
    }
  }
}

}  // namespace mpcnn::bnn::detail
