// AVX-512 variants of the word-parallel BNN kernels.  Compiled with
//   -mavx512f -mavx512bw -mavx512vl -mavx512vpopcntdq -mavx512vnni
//   -mavx2 -mpopcnt
// in this TU only (src/bnn/CMakeLists.txt); the dispatcher binds these
// pointers only after the runtime probe reports every one of them.
//
// As in the AVX2 kernels, output channels (and in accumulator mode the
// checksum rows) are 64-bit lanes, eight to a zmm register, and a
// broadcast patch word meets eight channels per instruction.  VPOPCNTQ
// counts each lane's mismatches in place, so the binary kernels need no
// per-byte fold; the byte stage multiplies the unsigned pixel bytes by
// the ±1 weight bytes with VPDPBUSD, four products into each 32-bit half
// of a lane.  Single dot products (xor_pop) stay on the AVX2 kernel.
// All integer arithmetic — results are exactly the scalar values.
//
// cstride is padded to 4 lanes, not 8, so a row's last group of lanes
// loads (and in accumulator mode stores) under a lane mask: a full
// 8-lane access there would touch the next row's lanes, or memory past
// the buffer.  Shifts use the zero-masking forms: GCC 12's unmasked
// _mm512_s{l,r}li/srai_epi64 start from _mm512_undefined_epi32() and draw
// -Wmaybe-uninitialized false positives.
#include "bnn/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__) && \
    defined(__AVX512VNNI__)

#include <immintrin.h>

#include "bnn/kernels_impl.hpp"

namespace mpcnn::bnn::detail {
namespace {

constexpr __mmask8 kAllLanes = 0xFF;

// Lanes [0, n) of one 8-lane group; n ≥ 8 selects all of them.
inline __mmask8 lane_mask(std::int64_t n) {
  return n >= 8 ? kAllLanes : static_cast<__mmask8>((1u << n) - 1);
}

// The mask of group g of G: all lanes but in the last group.
template <int G>
inline __mmask8 group_mask(int g, __mmask8 tail) {
  return g + 1 < G ? kAllLanes : tail;
}

// Calls f(Groups<G>{}) with G = groups, 1..9: the register-resident
// accumulators of a pass need G at compile time.
template <int G>
struct Groups {
  static constexpr int value = G;
};

template <typename F>
inline auto with_groups(std::int64_t groups, F&& f) {
  switch (groups) {
    case 1:
      return f(Groups<1>{});
    case 2:
      return f(Groups<2>{});
    case 3:
      return f(Groups<3>{});
    case 4:
      return f(Groups<4>{});
    case 5:
      return f(Groups<5>{});
    case 6:
      return f(Groups<6>{});
    case 7:
      return f(Groups<7>{});
    case 8:
      return f(Groups<8>{});
    default:
      return f(Groups<9>{});
  }
}

// ---- binary stage kernels ------------------------------------------------

// Mismatch counts of G groups of 8 adjacent lanes at w against the patch
// row at map bit `start`; the last group reads only the lanes in `tail`.
template <int G>
inline void xnor_counts(const std::uint64_t* w, std::int64_t cstride,
                        __mmask8 tail, const PatchWalk& s, std::int64_t start,
                        __m512i count[G]) {
  for (int g = 0; g < G; ++g) count[g] = _mm512_setzero_si512();
  RowWords row{start, 0};
  for (std::int64_t t = 0; t < s.k * s.wpj; ++t, w += cstride) {
    const __m512i pv = _mm512_set1_epi64(
        static_cast<long long>(next_word(s, row)));
    for (int g = 0; g < G; ++g) {
      const __m512i wv =
          _mm512_maskz_loadu_epi64(group_mask<G>(g, tail), w + 8 * g);
      count[g] = _mm512_add_epi64(
          count[g], _mm512_popcnt_epi64(_mm512_xor_si512(wv, pv)));
    }
  }
}

// One 64-channel chunk [c0, c0 + n) of every row: the verdicts m < bound
// of its G lane groups, one compare into a mask register per group.
template <int G>
void xnor_conv_chunk(const std::uint64_t* w, std::int64_t cstride,
                     const std::int64_t* bound, std::uint64_t flip,
                     std::int64_t channels, std::int64_t c0, std::int64_t n,
                     __mmask8 tail, const PatchWalk& s, std::uint64_t* out) {
  __m512i b[G];
  for (int g = 0; g < G; ++g) {
    b[g] = _mm512_maskz_loadu_epi64(group_mask<G>(g, tail),
                                    bound + c0 + 8 * g);
  }
  const std::uint64_t keep = n < 64 ? (std::uint64_t{1} << n) - 1 : ~0ULL;
  std::int64_t start = 0, ow = 0;
  for (std::int64_t p = 0; p < s.rows; ++p, next_row(s, start, ow)) {
    __m512i count[G];
    xnor_counts<G>(w + c0, cstride, tail, s, start, count);
    std::uint64_t bits = 0;
    for (int g = 0; g < G; ++g) {
      bits |= static_cast<std::uint64_t>(
                  _mm512_cmplt_epi64_mask(count[g], b[g]))
              << (8 * g);
    }
    or_field(out, p * channels + c0, (bits & keep) ^ flip);
  }
}

void xnor_conv_avx512(const std::uint64_t* w, std::int64_t cstride,
                      const std::int64_t* bound, const std::uint64_t* flip,
                      std::int64_t channels, const PatchSource& src,
                      std::uint64_t* out) {
  const PatchWalk s = patch_walk(src, 1);
  for (std::int64_t c0 = 0; c0 < channels; c0 += 64) {
    const std::int64_t n = channels - c0 < 64 ? channels - c0 : 64;
    const std::int64_t groups = (n + 7) / 8;
    const __mmask8 tail = lane_mask(cstride - c0 - 8 * (groups - 1));
    with_groups(groups, [&](auto gs) {
      xnor_conv_chunk<decltype(gs)::value>(w, cstride, bound, flip[c0 >> 6],
                                           channels, c0, n, tail, s, out);
    });
  }
}

// Lanes [c, c + 8·G) of every row as accumulators nbits − 2·m, narrowed
// to int32 by a masked VPMOVQD store.
template <int G>
void xnor_acc_chunk(const std::uint64_t* w, std::int64_t cstride,
                    std::int64_t c, __mmask8 tail, const PatchWalk& s,
                    std::int64_t nbits, std::int32_t* acc) {
  const __m512i total = _mm512_set1_epi64(static_cast<long long>(nbits));
  std::int64_t start = 0, ow = 0;
  for (std::int64_t p = 0; p < s.rows; ++p, next_row(s, start, ow)) {
    __m512i count[G];
    xnor_counts<G>(w + c, cstride, tail, s, start, count);
    std::int32_t* out = acc + p * cstride + c;
    for (int g = 0; g < G; ++g) {
      _mm512_mask_cvtepi64_storeu_epi32(
          out + 8 * g, group_mask<G>(g, tail),
          _mm512_sub_epi64(total, _mm512_add_epi64(count[g], count[g])));
    }
  }
}

void xnor_acc_avx512(const std::uint64_t* w, std::int64_t cstride,
                     std::int64_t lanes, const PatchSource& src,
                     std::int64_t nbits, std::int32_t* acc) {
  const PatchWalk s = patch_walk(src, 1);
  const std::int64_t padded = (lanes + 3) / 4 * 4;
  // A pass over the rows takes up to 72 lanes: a 64-row product and its
  // checksum lanes in one pass, a 128-row one (137 lanes) in two.
  for (std::int64_t c = 0; c < padded; c += 72) {
    const std::int64_t n = padded - c < 72 ? padded - c : 72;
    const std::int64_t groups = (n + 7) / 8;
    const __mmask8 tail = lane_mask(n - 8 * (groups - 1));
    with_groups(groups, [&](auto gs) {
      xnor_acc_chunk<decltype(gs)::value>(w, cstride, c, tail, s, nbits, acc);
    });
  }
}

// ---- byte stage ----------------------------------------------------------

// One 64-channel chunk [c0, c0 + n) of every row: VPDPBUSD sums each
// lane's products into its two int32 halves, and the verdict
// Σ patch·weight > bound compares their sign-extended sum.  Sums fit
// int32 (kernels.hpp), so the int32 accumulation cannot wrap.
template <int G>
void byte_conv_chunk(const std::uint64_t* w, std::int64_t cstride,
                     const std::int64_t* bound, std::uint64_t flip,
                     std::int64_t channels, std::int64_t c0, std::int64_t n,
                     __mmask8 tail, const PatchWalk& s, std::uint64_t* out) {
  __m512i b[G];
  for (int g = 0; g < G; ++g) {
    b[g] = _mm512_maskz_loadu_epi64(group_mask<G>(g, tail),
                                    bound + c0 + 8 * g);
  }
  const std::uint64_t keep = n < 64 ? (std::uint64_t{1} << n) - 1 : ~0ULL;
  std::int64_t start = 0, ow = 0;
  for (std::int64_t p = 0; p < s.rows; ++p, next_row(s, start, ow)) {
    __m512i acc[G];
    for (int g = 0; g < G; ++g) acc[g] = _mm512_setzero_si512();
    RowWords row{start, 0};
    const std::uint64_t* wt = w + c0;
    for (std::int64_t t = 0; t < s.k * s.wpj; ++t, wt += cstride) {
      const __m512i pv = _mm512_set1_epi64(
          static_cast<long long>(next_word(s, row)));
      for (int g = 0; g < G; ++g) {
        const __m512i wv =
            _mm512_maskz_loadu_epi64(group_mask<G>(g, tail), wt + 8 * g);
        acc[g] = _mm512_dpbusd_epi32(acc[g], pv, wv);
      }
    }
    std::uint64_t bits = 0;
    for (int g = 0; g < G; ++g) {
      const __m512i lo = _mm512_maskz_srai_epi64(
          kAllLanes, _mm512_maskz_slli_epi64(kAllLanes, acc[g], 32), 32);
      const __m512i hi = _mm512_maskz_srai_epi64(kAllLanes, acc[g], 32);
      bits |= static_cast<std::uint64_t>(_mm512_cmpgt_epi64_mask(
                  _mm512_add_epi64(lo, hi), b[g]))
              << (8 * g);
    }
    or_field(out, p * channels + c0, (bits & keep) ^ flip);
  }
}

void byte_conv_avx512(const std::uint64_t* w, std::int64_t cstride,
                      const std::int64_t* bound, const std::uint64_t* flip,
                      std::int64_t channels, const PatchSource& src,
                      std::uint64_t* out) {
  const PatchWalk s = patch_walk(src, 8);
  for (std::int64_t c0 = 0; c0 < channels; c0 += 64) {
    const std::int64_t n = channels - c0 < 64 ? channels - c0 : 64;
    const std::int64_t groups = (n + 7) / 8;
    const __mmask8 tail = lane_mask(cstride - c0 - 8 * (groups - 1));
    with_groups(groups, [&](auto gs) {
      byte_conv_chunk<decltype(gs)::value>(w, cstride, bound, flip[c0 >> 6],
                                           channels, c0, n, tail, s, out);
    });
  }
}

}  // namespace

const BnnPopFns kBnnPopAvx512 = {nullptr, &xnor_conv_avx512,
                                 &xnor_acc_avx512};
const StageKernelFn kByteConvAvx512 = &byte_conv_avx512;

}  // namespace mpcnn::bnn::detail

#else  // non-x86 build or missing per-file flags: never bound.

namespace mpcnn::bnn::detail {
const BnnPopFns kBnnPopAvx512 = {nullptr, nullptr, nullptr};
const StageKernelFn kByteConvAvx512 = nullptr;
}  // namespace mpcnn::bnn::detail

#endif
