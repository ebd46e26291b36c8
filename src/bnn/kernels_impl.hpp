// Shared word-parallel kernel bodies, included by bitpack.cpp (baseline
// build flags → SWAR popcount), bitpack_popcnt.cpp (-mpopcnt → one
// POPCNT instruction per word), and for the field helpers and the patch
// reader by bitpack_avx2.cpp, bitpack_avx512.cpp and compile.cpp.  Every
// function is `static inline` on purpose (and every type a plain
// aggregate): each including TU compiles a private copy with its own ISA
// flags, and nothing is emitted into a linker-shared COMDAT section —
// the whole point of per-TU ISA dispatch is that no AVX2/AVX-512/POPCNT
// code can leak into the baseline binary.
//
// __builtin_popcountll and __builtin_memcpy (not std::popcount and
// std::memcpy) keep this header free of std templates for the same
// reason; they lower identically.
#pragma once

#include <cstdint>

#include "bnn/kernels.hpp"

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

// `count` (1..64) bits of a packed row from `bit`, reading no word past
// the one that holds the field's last bit: for rows with no spare word.
static inline std::uint64_t row_bits(const std::uint64_t* row,
                                     std::int64_t bit, std::int64_t count) {
  const std::int64_t wi = bit >> 6;
  const int off = static_cast<int>(bit & 63);
  std::uint64_t v = row[wi] >> off;
  if (off + count > 64) v |= row[wi + 1] << (64 - off);
  return count >= 64 ? v : v & ((std::uint64_t{1} << count) - 1);
}

// ---- patch rows read straight from the map (PatchSource) ---------------
//
// A stage kernel walks the rows of a source in order: `start` is the map
// bit where the current row's first run begins, and word kh·wpj + j of
// the row is the map's bits from start + kh·line + 64j, cut to the run
// on the run's last word.

// A source in map bits: a pixel is `pixel` bits, a map row `line` bits,
// a run `wpj` words whose last one keeps the bits in `tail`; `bytes`
// when every run starts on a byte.
struct PatchWalk {
  const std::uint64_t* map;
  std::int64_t pixel, line, k, wpj, out_w, rows;
  std::uint64_t tail;
  bool bytes;
};

// `unit` is the bits of one source unit: 1 for a bit map, 8 for bytes.
static inline PatchWalk patch_walk(const PatchSource& s,
                                   std::int64_t unit) {
  const std::int64_t pixel = s.c * unit;
  const std::int64_t run = s.k * pixel;
  const std::int64_t wpj = (run + 63) / 64;
  const std::int64_t last = run - 64 * (wpj - 1);
  const std::uint64_t tail =
      last >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << last) - 1;
  return {s.map,   pixel,  s.in_w * pixel, s.k, wpj,
          s.out_w, s.rows, tail,           pixel % 8 == 0};
}

// Steps `start` from the row at output column `ow` to the next row.
static inline void next_row(const PatchWalk& s, std::int64_t& start,
                            std::int64_t& ow) {
  start += s.pixel;
  if (++ow == s.out_w) {
    ow = 0;
    start += (s.k - 1) * s.pixel;
  }
}

// Walks one row's words in order, t = kh·wpj + j.
struct RowWords {
  std::int64_t run, j;
};

// The row's next word, masked to the run on the run's last word, so the
// neighbouring pixels' bits never reach the kernel.  Where every run
// starts on a byte (byte_conv, every CNV binary stage, xnor_gemm's
// word-aligned rows) it is one unaligned 8-byte load, else one funnel
// shift of two map words.  The branch is the same for a whole call; a
// funnel-only reader cost the AVX-512 engine 12% (43.7 against 38.8 µs
// per CNV-0.25 image, median of 13 interleaved rounds at 1 thread).
static inline std::uint64_t next_word(const PatchWalk& s, RowWords& r) {
  const std::int64_t bit = r.run + 64 * r.j;
  std::uint64_t v = 0;
  if (s.bytes) {
    __builtin_memcpy(
        &v, reinterpret_cast<const unsigned char*>(s.map) + (bit >> 3), 8);
  } else {
    const int off = static_cast<int>(bit & 63);
    v = (s.map[bit >> 6] >> off) |
        ((s.map[(bit >> 6) + 1] << 1) << (63 - off));
  }
  if (++r.j < s.wpj) return v;
  r.j = 0;
  r.run += s.line;
  return v & s.tail;
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
//
// The portable kernels count up to 64 lanes per pass, four at a time in
// registers.  A pass first copies the row's words from the map into a
// stack buffer, up to kRowChunk words at a time, so each patch word is
// read from the map once per 64 lanes rather than once per four.

constexpr std::int64_t kRowChunk = 64;

// Mismatch counts m[j] of lanes [0, n) at w (word t of lane j at
// w[t·cstride + j]; n ≤ 64, lanes up to n rounded to 4 within the
// stride) against the row at map bit `start`; `row` is scratch.
static inline void lane_mismatches(const std::uint64_t* w,
                                   std::int64_t cstride, std::int64_t n,
                                   const PatchWalk& s, std::int64_t start,
                                   std::uint64_t row[kRowChunk],
                                   std::int64_t m[64]) {
  for (std::int64_t j = 0; j < (n + 3) / 4 * 4; ++j) m[j] = 0;
  const std::int64_t nwords = s.k * s.wpj;
  RowWords r{start, 0};
  for (std::int64_t t0 = 0; t0 < nwords; t0 += kRowChunk) {
    const std::int64_t len =
        nwords - t0 < kRowChunk ? nwords - t0 : kRowChunk;
    for (std::int64_t i = 0; i < len; ++i) row[i] = next_word(s, r);
    for (std::int64_t j = 0; j < n; j += 4) {
      std::int64_t m0 = 0, m1 = 0, m2 = 0, m3 = 0;
      for (std::int64_t i = 0; i < len; ++i) {
        const std::uint64_t pv = row[i];
        const std::uint64_t* wt = w + (t0 + i) * cstride + j;
        m0 += bnn_popcount64(wt[0] ^ pv);
        m1 += bnn_popcount64(wt[1] ^ pv);
        m2 += bnn_popcount64(wt[2] ^ pv);
        m3 += bnn_popcount64(wt[3] ^ pv);
      }
      m[j] += m0;
      m[j + 1] += m1;
      m[j + 2] += m2;
      m[j + 3] += m3;
    }
  }
}

// A 64-channel chunk of comparisons becomes one pixel word.  Padding
// lanes (zero weights, bound 0) never fire.
static inline void xnor_conv_impl(const std::uint64_t* w,
                                  std::int64_t cstride,
                                  const std::int64_t* bound,
                                  const std::uint64_t* flip,
                                  std::int64_t channels,
                                  const PatchSource& src,
                                  std::uint64_t* out) {
  const PatchWalk s = patch_walk(src, 1);
  std::uint64_t row[kRowChunk] = {};
  std::int64_t m[64] = {};
  std::int64_t start = 0, ow = 0;
  for (std::int64_t p = 0; p < s.rows; ++p, next_row(s, start, ow)) {
    for (std::int64_t c0 = 0; c0 < channels; c0 += 64) {
      const std::int64_t n = channels - c0 < 64 ? channels - c0 : 64;
      lane_mismatches(w + c0, cstride, n, s, start, row, m);
      std::uint64_t bits = 0;
      for (std::int64_t j = 0; j < n; ++j) {
        bits |= static_cast<std::uint64_t>(m[j] < bound[c0 + j]) << j;
      }
      or_field(out, p * channels + c0, bits ^ flip[c0 >> 6]);
    }
  }
}

static inline void xnor_acc_impl(const std::uint64_t* w,
                                 std::int64_t cstride, std::int64_t lanes,
                                 const PatchSource& src, std::int64_t nbits,
                                 std::int32_t* acc) {
  const PatchWalk s = patch_walk(src, 1);
  std::uint64_t row[kRowChunk] = {};
  std::int64_t m[64] = {};
  std::int64_t start = 0, ow = 0;
  for (std::int64_t p = 0; p < s.rows; ++p, next_row(s, start, ow)) {
    std::int32_t* out = acc + p * cstride;
    for (std::int64_t c = 0; c < lanes; c += 64) {
      const std::int64_t n = lanes - c < 64 ? lanes - c : 64;
      lane_mismatches(w + c, cstride, n, s, start, row, m);
      for (std::int64_t j = 0; j < n; ++j) {
        out[c + j] = static_cast<std::int32_t>(nbits - 2 * m[j]);
      }
    }
  }
}

}  // namespace mpcnn::bnn::detail
