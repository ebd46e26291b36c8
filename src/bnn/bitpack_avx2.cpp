// AVX2 variants of the word-parallel BNN kernels.  Compiled with
//   -mavx2 -mpopcnt
// in this TU only (src/bnn/CMakeLists.txt); the dispatcher binds these
// pointers only after the runtime probe reports AVX2+POPCNT.
//
// Popcount uses the VPSHUFB nibble-LUT (Muła): split each byte into two
// nibbles, look both up in a 16-entry in-register table of nibble
// popcounts, add.  The VPSADBW fold of the per-byte counts into 64-bit
// lanes is *deferred*: byte counts accumulate in an epi8 register for as
// many words as cannot overflow before one SAD drains them — the fold is
// the expensive part, so deferring it is most of the win over hardware
// POPCNT.  The stage kernels use output channels (and in accumulator
// mode the checksum rows too) as the 64-bit lanes.
// All integer arithmetic — results are exactly the SWAR/POPCNT values,
// just wider, so dispatch can never perturb an accumulator.
#include "bnn/kernels.hpp"

#if defined(__AVX2__) && defined(__POPCNT__)

#include <immintrin.h>

#include "bnn/kernels_impl.hpp"

namespace mpcnn::bnn::detail {
namespace {

// Per-byte popcounts of v (32 counts, each ≤ 8).
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

// ---- stage kernels: output channels as 64-bit lanes ---------------------
//
// Lane j of the vector at w + t·cstride + c holds word t of channel
// c + j (kernels.hpp), so a broadcast patch word meets four channels per
// instruction.  Each lane's count ends in one 64-bit compare against
// the channel's bound, and VMOVMSKPD packs four verdicts into the pixel;
// in accumulator mode it becomes nbits − 2·count in one int32 slot.

// Words of one row whose per-byte popcounts (≤ 8 each) fit an epi8
// accumulator: 31 · 8 = 248 < 256.
constexpr std::int64_t kFoldWords = 31;

// Mismatch counts of 4·G adjacent lanes against the patch row at map
// bit `start`, one per 64-bit lane.
template <int G>
inline void xnor_counts(const std::uint64_t* w, std::int64_t cstride,
                        const PatchWalk& s, std::int64_t start,
                        __m256i count[G]) {
  const __m256i zero = _mm256_setzero_si256();
  for (int g = 0; g < G; ++g) count[g] = zero;
  const std::int64_t nwords = s.k * s.wpj;
  RowWords row{start, 0};
  for (std::int64_t t = 0; t < nwords;) {
    const std::int64_t lim = t + kFoldWords < nwords ? t + kFoldWords : nwords;
    __m256i bytes[G];
    for (int g = 0; g < G; ++g) bytes[g] = zero;
    for (; t < lim; ++t) {
      const __m256i pv = _mm256_set1_epi64x(
          static_cast<long long>(next_word(s, row)));
      const std::uint64_t* wt = w + t * cstride;
      for (int g = 0; g < G; ++g) {
        const __m256i wv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wt + 4 * g));
        bytes[g] = _mm256_add_epi8(
            bytes[g], popcount_epi8(_mm256_xor_si256(wv, pv)));
      }
    }
    for (int g = 0; g < G; ++g) {
      count[g] = _mm256_add_epi64(count[g], _mm256_sad_epu8(bytes[g], zero));
    }
  }
}

// Mismatch verdicts (m < bound) of 4·G adjacent channels for one row.
template <int G>
inline std::uint64_t xnor_lanes(const std::uint64_t* w, std::int64_t cstride,
                                const std::int64_t* bound, const PatchWalk& s,
                                std::int64_t start) {
  __m256i count[G];
  xnor_counts<G>(w, cstride, s, start, count);
  std::uint64_t bits = 0;
  for (int g = 0; g < G; ++g) {
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bound + 4 * g));
    const int fired = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(b, count[g])));
    bits |= static_cast<std::uint64_t>(fired) << (4 * g);
  }
  return bits;
}

void xnor_conv_avx2(const std::uint64_t* w, std::int64_t cstride,
                    const std::int64_t* bound, const std::uint64_t* flip,
                    std::int64_t channels, const PatchSource& src,
                    std::uint64_t* out) {
  const PatchWalk s = patch_walk(src, 1);
  std::int64_t start = 0, ow = 0;
  for (std::int64_t p = 0; p < s.rows; ++p, next_row(s, start, ow)) {
    for (std::int64_t c0 = 0; c0 < channels; c0 += 64) {
      const std::int64_t n = channels - c0 < 64 ? channels - c0 : 64;
      std::uint64_t bits = 0;
      std::int64_t c = 0;
      for (; c + 16 <= n; c += 16) {
        bits |= xnor_lanes<4>(w + c0 + c, cstride, bound + c0 + c, s, start)
                << c;
      }
      for (; c < n; c += 4) {
        bits |= xnor_lanes<1>(w + c0 + c, cstride, bound + c0 + c, s, start)
                << c;
      }
      if (n < 64) bits &= (std::uint64_t{1} << n) - 1;  // padding lanes
      or_field(out, p * channels + c0, bits ^ flip[c0 >> 6]);
    }
  }
}

// Accumulators nbits − 2·m of 4·G adjacent lanes, stored as int32: the
// low dword of each 64-bit lane, gathered into the low 128 bits.
template <int G>
inline void xnor_acc_lanes(const std::uint64_t* w, std::int64_t cstride,
                           const PatchWalk& s, std::int64_t start,
                           __m256i nbits, std::int32_t* acc) {
  __m256i count[G];
  xnor_counts<G>(w, cstride, s, start, count);
  const __m256i low = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  for (int g = 0; g < G; ++g) {
    const __m256i v =
        _mm256_sub_epi64(nbits, _mm256_add_epi64(count[g], count[g]));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(acc + 4 * g),
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(v, low)));
  }
}

void xnor_acc_avx2(const std::uint64_t* w, std::int64_t cstride,
                   std::int64_t lanes, const PatchSource& src,
                   std::int64_t nbits, std::int32_t* acc) {
  const PatchWalk s = patch_walk(src, 1);
  const __m256i total = _mm256_set1_epi64x(static_cast<long long>(nbits));
  std::int64_t start = 0, ow = 0;
  for (std::int64_t p = 0; p < s.rows; ++p, next_row(s, start, ow)) {
    std::int32_t* out = acc + p * cstride;
    std::int64_t c = 0;
    for (; c + 16 <= lanes; c += 16) {
      xnor_acc_lanes<4>(w + c, cstride, s, start, total, out + c);
    }
    if (c + 8 <= lanes) {
      xnor_acc_lanes<2>(w + c, cstride, s, start, total, out + c);
      c += 8;
    }
    for (; c < lanes; c += 4) {
      xnor_acc_lanes<1>(w + c, cstride, s, start, total, out + c);
    }
  }
}

// Words whose VPMADDUBSW pair sums (|x·w + x'·w'| ≤ 510) fit int16
// lanes: 64 · 510 = 32640 < 32768.
constexpr std::int64_t kFoldBytePairs = 64;

// Accumulator verdicts (Σ patch·weight > bound) of 4·G adjacent
// channels for the patch row at map bit `start`.  VPMADDUBSW multiplies
// the unsigned pixel bytes by the ±1 weight bytes and adds neighbours
// into int16 lanes; VPMADDWD folds those into two int32 halves of each
// channel's 64-bit lane, whose sum the low dword compare reads.
template <int G>
inline std::uint64_t byte_lanes(const PatchWalk& s, std::int64_t start,
                                const std::uint64_t* w, std::int64_t cstride,
                                const std::int64_t* bound) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc[G];
  for (int g = 0; g < G; ++g) acc[g] = zero;
  const std::int64_t nwords = s.k * s.wpj;
  RowWords row{start, 0};
  for (std::int64_t t = 0; t < nwords;) {
    const std::int64_t lim =
        t + kFoldBytePairs < nwords ? t + kFoldBytePairs : nwords;
    __m256i pairs[G];
    for (int g = 0; g < G; ++g) pairs[g] = zero;
    for (; t < lim; ++t) {
      const __m256i pv = _mm256_set1_epi64x(
          static_cast<long long>(next_word(s, row)));
      const std::uint64_t* wt = w + t * cstride;
      for (int g = 0; g < G; ++g) {
        const __m256i wv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wt + 4 * g));
        pairs[g] = _mm256_add_epi16(pairs[g], _mm256_maddubs_epi16(pv, wv));
      }
    }
    for (int g = 0; g < G; ++g) {
      acc[g] = _mm256_add_epi32(acc[g], _mm256_madd_epi16(pairs[g], ones));
    }
  }
  std::uint64_t bits = 0;
  for (int g = 0; g < G; ++g) {
    const __m256i sum =
        _mm256_add_epi32(acc[g], _mm256_srli_epi64(acc[g], 32));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bound + 4 * g));
    const __m256i fired =
        _mm256_slli_epi64(_mm256_cmpgt_epi32(sum, b), 32);
    bits |= static_cast<std::uint64_t>(
                _mm256_movemask_pd(_mm256_castsi256_pd(fired)))
            << (4 * g);
  }
  return bits;
}

void byte_conv_avx2(const std::uint64_t* w, std::int64_t cstride,
                    const std::int64_t* bound, const std::uint64_t* flip,
                    std::int64_t channels, const PatchSource& src,
                    std::uint64_t* out) {
  const PatchWalk s = patch_walk(src, 8);
  std::int64_t start = 0, ow = 0;
  for (std::int64_t p = 0; p < s.rows; ++p, next_row(s, start, ow)) {
    for (std::int64_t c0 = 0; c0 < channels; c0 += 64) {
      const std::int64_t n = channels - c0 < 64 ? channels - c0 : 64;
      std::uint64_t bits = 0;
      std::int64_t c = 0;
      for (; c + 16 <= n; c += 16) {
        bits |= byte_lanes<4>(s, start, w + c0 + c, cstride, bound + c0 + c)
                << c;
      }
      for (; c < n; c += 4) {
        bits |= byte_lanes<1>(s, start, w + c0 + c, cstride, bound + c0 + c)
                << c;
      }
      if (n < 64) bits &= (std::uint64_t{1} << n) - 1;  // padding lanes
      or_field(out, p * channels + c0, bits ^ flip[c0 >> 6]);
    }
  }
}

}  // namespace

const BnnPopFns kBnnPopAvx2 = {&xnor_conv_avx2, &xnor_acc_avx2};
const StageKernelFn kByteConvAvx2 = &byte_conv_avx2;

}  // namespace mpcnn::bnn::detail

#else  // non-x86 build or missing per-file flags: never bound.

namespace mpcnn::bnn::detail {
const BnnPopFns kBnnPopAvx2 = {nullptr, nullptr};
const StageKernelFn kByteConvAvx2 = nullptr;
}  // namespace mpcnn::bnn::detail

#endif
