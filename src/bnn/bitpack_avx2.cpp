// AVX2 variants of the word-parallel BNN kernels.  Compiled with
//   -mavx2 -mpopcnt
// in this TU only (src/bnn/CMakeLists.txt); the dispatcher binds these
// pointers only after the runtime probe reports AVX2+POPCNT.
//
// Popcount uses the VPSHUFB nibble-LUT (Muła): split each byte into two
// nibbles, look both up in a 16-entry in-register table of nibble
// popcounts, add.  One 256-bit step digests four row words.  The VPSADBW
// fold into 64-bit lanes is *deferred*: per-byte counts (≤ 8 per step)
// accumulate in an epi8 register for up to 28 steps (≤ 224 < 256, no
// overflow) before one SAD drains them — the fold is the expensive part,
// so deferring it is most of the win over hardware POPCNT.  All integer
// arithmetic — results are exactly the SWAR/POPCNT values, just wider,
// so dispatch can never perturb an accumulator.
#include "bnn/kernels.hpp"

#if defined(__AVX2__) && defined(__POPCNT__)

#include <immintrin.h>

namespace mpcnn::bnn::detail {
namespace {

// Per-byte popcounts of v (32 counts, each ≤ 8 — safe to accumulate 28
// of these in epi8 before a VPSADBW fold).
inline __m256i popcount_epi8(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

// Steps (of 4 words each) whose byte counts fit one epi8 accumulator.
constexpr std::int64_t kSadDeferSteps = 28;

inline std::int64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return _mm_cvtsi128_si64(s) +
         _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s));
}

std::int64_t xor_pop_avx2(const std::uint64_t* a, const std::uint64_t* b,
                          std::int64_t nwords) {
  const std::int64_t vec_end = nwords & ~std::int64_t{3};
  __m256i acc = _mm256_setzero_si256();
  std::int64_t t = 0;
  while (t < vec_end) {
    const std::int64_t lim =
        t + 4 * kSadDeferSteps < vec_end ? t + 4 * kSadDeferSteps : vec_end;
    __m256i bytes = _mm256_setzero_si256();
    for (; t < lim; t += 4) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + t));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + t));
      bytes = _mm256_add_epi8(bytes,
                              popcount_epi8(_mm256_xor_si256(va, vb)));
    }
    acc = _mm256_add_epi64(
        acc, _mm256_sad_epu8(bytes, _mm256_setzero_si256()));
  }
  std::int64_t m = hsum_epi64(acc);
  for (; t < nwords; ++t) {
    m += static_cast<std::int64_t>(_mm_popcnt_u64(a[t] ^ b[t]));
  }
  return m;
}

void xor_pop4_avx2(const std::uint64_t* w, std::int64_t wstride,
                   const std::uint64_t* p, std::int64_t nwords,
                   std::int64_t m[4]) {
  const std::uint64_t* w0 = w;
  const std::uint64_t* w1 = w + wstride;
  const std::uint64_t* w2 = w + 2 * wstride;
  const std::uint64_t* w3 = w + 3 * wstride;
  const std::int64_t vec_end = nwords & ~std::int64_t{3};
  __m256i a0 = _mm256_setzero_si256();
  __m256i a1 = _mm256_setzero_si256();
  __m256i a2 = _mm256_setzero_si256();
  __m256i a3 = _mm256_setzero_si256();
  std::int64_t t = 0;
  while (t < vec_end) {
    const std::int64_t lim =
        t + 4 * kSadDeferSteps < vec_end ? t + 4 * kSadDeferSteps : vec_end;
    __m256i b0 = _mm256_setzero_si256();
    __m256i b1 = _mm256_setzero_si256();
    __m256i b2 = _mm256_setzero_si256();
    __m256i b3 = _mm256_setzero_si256();
    for (; t < lim; t += 4) {
      const __m256i pv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + t));
      b0 = _mm256_add_epi8(
          b0, popcount_epi8(_mm256_xor_si256(
                  _mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(w0 + t)),
                  pv)));
      b1 = _mm256_add_epi8(
          b1, popcount_epi8(_mm256_xor_si256(
                  _mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(w1 + t)),
                  pv)));
      b2 = _mm256_add_epi8(
          b2, popcount_epi8(_mm256_xor_si256(
                  _mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(w2 + t)),
                  pv)));
      b3 = _mm256_add_epi8(
          b3, popcount_epi8(_mm256_xor_si256(
                  _mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(w3 + t)),
                  pv)));
    }
    const __m256i zero = _mm256_setzero_si256();
    a0 = _mm256_add_epi64(a0, _mm256_sad_epu8(b0, zero));
    a1 = _mm256_add_epi64(a1, _mm256_sad_epu8(b1, zero));
    a2 = _mm256_add_epi64(a2, _mm256_sad_epu8(b2, zero));
    a3 = _mm256_add_epi64(a3, _mm256_sad_epu8(b3, zero));
  }
  std::int64_t m0 = hsum_epi64(a0);
  std::int64_t m1 = hsum_epi64(a1);
  std::int64_t m2 = hsum_epi64(a2);
  std::int64_t m3 = hsum_epi64(a3);
  for (; t < nwords; ++t) {
    const std::uint64_t pv = p[t];
    m0 += static_cast<std::int64_t>(_mm_popcnt_u64(w0[t] ^ pv));
    m1 += static_cast<std::int64_t>(_mm_popcnt_u64(w1[t] ^ pv));
    m2 += static_cast<std::int64_t>(_mm_popcnt_u64(w2[t] ^ pv));
    m3 += static_cast<std::int64_t>(_mm_popcnt_u64(w3[t] ^ pv));
  }
  m[0] = m0;
  m[1] = m1;
  m[2] = m2;
  m[3] = m3;
}

std::int64_t byte_sum_avx2(const std::uint8_t* p, std::int64_t nbytes) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t i = 0;
  for (; i + 32 <= nbytes; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(v, _mm256_setzero_si256()));
  }
  std::int64_t sum = hsum_epi64(acc);
  for (; i + 16 <= nbytes; i += 16) {  // stride is a multiple of 16
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const __m128i s = _mm_sad_epu8(v, _mm_setzero_si128());
    sum += _mm_cvtsi128_si64(s) +
           _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s));
  }
  return sum;
}

std::int64_t masked_byte_sum_avx2(const std::uint8_t* p,
                                  const std::uint8_t* w,
                                  std::int64_t nbytes) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t i = 0;
  for (; i + 32 <= nbytes; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(_mm256_and_si256(v, m),
                                                _mm256_setzero_si256()));
  }
  std::int64_t sum = hsum_epi64(acc);
  for (; i + 16 <= nbytes; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const __m128i m =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    const __m128i s =
        _mm_sad_epu8(_mm_and_si128(v, m), _mm_setzero_si128());
    sum += _mm_cvtsi128_si64(s) +
           _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s));
  }
  return sum;
}

void masked_byte_sum4_avx2(const std::uint8_t* p, const std::uint8_t* w,
                           std::int64_t wstride, std::int64_t nbytes,
                           std::int64_t sums[4]) {
  const std::uint8_t* w0 = w;
  const std::uint8_t* w1 = w + wstride;
  const std::uint8_t* w2 = w + 2 * wstride;
  const std::uint8_t* w3 = w + 3 * wstride;
  const __m256i zero = _mm256_setzero_si256();
  __m256i a0 = zero;
  __m256i a1 = zero;
  __m256i a2 = zero;
  __m256i a3 = zero;
  std::int64_t i = 0;
  for (; i + 32 <= nbytes; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    a0 = _mm256_add_epi64(
        a0, _mm256_sad_epu8(
                _mm256_and_si256(
                    v, _mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(w0 + i))),
                zero));
    a1 = _mm256_add_epi64(
        a1, _mm256_sad_epu8(
                _mm256_and_si256(
                    v, _mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(w1 + i))),
                zero));
    a2 = _mm256_add_epi64(
        a2, _mm256_sad_epu8(
                _mm256_and_si256(
                    v, _mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(w2 + i))),
                zero));
    a3 = _mm256_add_epi64(
        a3, _mm256_sad_epu8(
                _mm256_and_si256(
                    v, _mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(w3 + i))),
                zero));
  }
  sums[0] = hsum_epi64(a0);
  sums[1] = hsum_epi64(a1);
  sums[2] = hsum_epi64(a2);
  sums[3] = hsum_epi64(a3);
  for (; i + 16 <= nbytes; i += 16) {  // stride is a multiple of 16
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const std::uint8_t* const rows[4] = {w0, w1, w2, w3};
    for (int r = 0; r < 4; ++r) {
      const __m128i m =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[r] + i));
      const __m128i s =
          _mm_sad_epu8(_mm_and_si128(v, m), _mm_setzero_si128());
      sums[r] += _mm_cvtsi128_si64(s) +
                 _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s));
    }
  }
}

}  // namespace

const BnnPopFns kBnnPopAvx2 = {&xor_pop_avx2, &xor_pop4_avx2};
const BnnSumFns kBnnSumAvx2 = {&byte_sum_avx2, &masked_byte_sum_avx2,
                               &masked_byte_sum4_avx2};

}  // namespace mpcnn::bnn::detail

#else  // non-x86 build or missing per-file flags: never bound.

namespace mpcnn::bnn::detail {
const BnnPopFns kBnnPopAvx2 = {nullptr, nullptr};
const BnnSumFns kBnnSumAvx2 = {nullptr, nullptr, nullptr};
}  // namespace mpcnn::bnn::detail

#endif
