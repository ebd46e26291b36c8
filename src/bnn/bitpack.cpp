#include "bnn/bitpack.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "bnn/kernels.hpp"
#include "bnn/kernels_impl.hpp"
#include "core/cpu.hpp"
#include "core/integrity/integrity.hpp"
#include "core/threadpool.hpp"

namespace mpcnn::bnn {
namespace detail {
namespace {

#if defined(__SSE2__)
// SSE2 byte sums for the fixed-point first stage (PSADBW against zero =
// horizontal byte sum).  Baseline x86-64 always has SSE2, so these live
// in the ordinary TU; the AVX2 widening lives in bitpack_avx2.cpp.
std::int64_t byte_sum_sse2(const std::uint8_t* p, std::int64_t nbytes) {
  __m128i total = _mm_setzero_si128();
  for (std::int64_t i = 0; i + 16 <= nbytes; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    total = _mm_add_epi64(total, _mm_sad_epu8(v, _mm_setzero_si128()));
  }
  return _mm_cvtsi128_si64(total) +
         _mm_cvtsi128_si64(_mm_unpackhi_epi64(total, total));
}

std::int64_t masked_byte_sum_sse2(const std::uint8_t* p,
                                  const std::uint8_t* w,
                                  std::int64_t nbytes) {
  __m128i acc = _mm_setzero_si128();
  for (std::int64_t i = 0; i + 16 <= nbytes; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const __m128i m =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    acc = _mm_add_epi64(
        acc, _mm_sad_epu8(_mm_and_si128(v, m), _mm_setzero_si128()));
  }
  return _mm_cvtsi128_si64(acc) +
         _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc));
}
#endif  // __SSE2__

const BnnKernels& scalar_table() {
  static const BnnKernels t = {"scalar",      "none",
                               &xor_pop_impl, &xor_pop4_impl,
                               nullptr,       nullptr,
                               nullptr};
  return t;
}

const BnnKernels& sse2_table(bool with_popcnt) {
#if defined(__SSE2__)
  static const BnnKernels plain = {"scalar",       "sse2",
                                   &xor_pop_impl,  &xor_pop4_impl,
                                   &byte_sum_sse2, &masked_byte_sum_sse2,
                                   nullptr};
  static const BnnKernels popcnt = {
      "popcnt",
      "sse2",
      kBnnPopPopcnt.xor_pop != nullptr ? kBnnPopPopcnt.xor_pop
                                       : &xor_pop_impl,
      kBnnPopPopcnt.xor_pop4 != nullptr ? kBnnPopPopcnt.xor_pop4
                                        : &xor_pop4_impl,
      &byte_sum_sse2,
      &masked_byte_sum_sse2,
      nullptr};
  return with_popcnt && kBnnPopPopcnt.xor_pop != nullptr ? popcnt : plain;
#else
  (void)with_popcnt;
  return scalar_table();
#endif
}

const BnnKernels& avx2_table() {
#if defined(__SSE2__)
  if (kBnnPopAvx2.xor_pop == nullptr || kBnnSumAvx2.byte_sum == nullptr) {
    return sse2_table(true);
  }
  static const BnnKernels t = {"avx2",
                               "avx2",
                               kBnnPopAvx2.xor_pop,
                               kBnnPopAvx2.xor_pop4,
                               kBnnSumAvx2.byte_sum,
                               kBnnSumAvx2.masked_byte_sum,
                               kBnnSumAvx2.masked_byte_sum4};
  return t;
#else
  return scalar_table();
#endif
}

}  // namespace

// Rebinds when core::refresh_isa() bumps the generation (test hook); in
// production this resolves once on first use and stays put.
const BnnKernels& kernels() {
  static std::atomic<const BnnKernels*> cur{nullptr};
  static std::atomic<int> bound_gen{-1};
  static std::mutex mu;
  const int gen = core::isa_generation();
  const BnnKernels* k = cur.load(std::memory_order_acquire);
  if (k == nullptr || bound_gen.load(std::memory_order_acquire) != gen) {
    std::lock_guard<std::mutex> lock(mu);
    switch (core::active_isa()) {
      case core::Isa::kScalar:
        k = &scalar_table();
        break;
      case core::Isa::kSse2:
        k = &sse2_table(core::cpu_features().popcnt);
        break;
      case core::Isa::kAvx2:
        k = &avx2_table();
        break;
    }
    cur.store(k, std::memory_order_release);
    bound_gen.store(gen, std::memory_order_release);
  }
  return *k;
}

namespace {

const char* bnn_pop_variant() { return kernels().pop_name; }
const char* bnn_sum_variant() { return kernels().sum_name; }
[[maybe_unused]] const bool kPopSlotRegistered =
    core::register_kernel_slot("bnn.xor_popcount", &bnn_pop_variant);
[[maybe_unused]] const bool kPop4SlotRegistered =
    core::register_kernel_slot("bnn.xor_popcount4", &bnn_pop_variant);
[[maybe_unused]] const bool kSumSlotRegistered =
    core::register_kernel_slot("bnn.byte_conv", &bnn_sum_variant);

}  // namespace
}  // namespace detail

namespace {

Dim words_for(Dim nbits) { return (nbits + 63) / 64; }

// All-ones mask of the low n bits, n in [0, 64].
inline std::uint64_t mask_n(Dim n) {
  return n >= 64 ? ~0ULL : (1ULL << n) - 1ULL;
}

// Reads `count` (1..64) bits starting at `bit`; result in the low bits.
inline std::uint64_t extract_word(const std::uint64_t* words, Dim bit,
                                  Dim count) {
  const std::size_t wi = static_cast<std::size_t>(bit >> 6);
  const Dim off = bit & 63;
  std::uint64_t v = words[wi] >> off;
  if (off + count > 64) v |= words[wi + 1] << (64 - off);
  return v & mask_n(count);
}

// Overwrites `count` (1..64) bits starting at `bit` with the low bits
// of v (which must carry no bits above `count`).
inline void deposit_word(std::uint64_t* words, Dim bit, std::uint64_t v,
                         Dim count) {
  const std::size_t wi = static_cast<std::size_t>(bit >> 6);
  const Dim off = bit & 63;
  const std::uint64_t m = mask_n(count);
  words[wi] = (words[wi] & ~(m << off)) | (v << off);
  if (off + count > 64) {
    const Dim spill = off + count - 64;
    words[wi + 1] = (words[wi + 1] & ~mask_n(spill)) | (v >> (64 - off));
  }
}

// OR-only deposit for writers into known-zero destinations (fresh
// BitMatrix rows): saves the clearing pass of deposit_word.
inline void deposit_word_or(std::uint64_t* words, Dim bit, std::uint64_t v,
                            Dim count) {
  const std::size_t wi = static_cast<std::size_t>(bit >> 6);
  const Dim off = bit & 63;
  words[wi] |= v << off;
  if (off + count > 64) words[wi + 1] |= v >> (64 - off);
}

}  // namespace

BitVector::BitVector(Dim nbits)
    : nbits_(nbits), words_(static_cast<std::size_t>(words_for(nbits)), 0) {
  MPCNN_CHECK(nbits >= 0, "negative BitVector size");
}

void BitVector::set(Dim i, bool v) {
  MPCNN_DCHECK(i >= 0 && i < nbits_, "bit index " << i << " of " << nbits_);
  const std::size_t w = static_cast<std::size_t>(i >> 6);
  const std::uint64_t mask = 1ULL << (i & 63);
  if (v) {
    words_[w] |= mask;
  } else {
    words_[w] &= ~mask;
  }
}

bool BitVector::get(Dim i) const {
  MPCNN_DCHECK(i >= 0 && i < nbits_, "bit index " << i << " of " << nbits_);
  return (words_[static_cast<std::size_t>(i >> 6)] >> (i & 63)) & 1ULL;
}

void BitVector::clear() {
  std::fill(words_.begin(), words_.end(), 0ULL);
}

Dim BitVector::xnor_matches(const BitVector& other) const {
  MPCNN_CHECK(nbits_ == other.nbits_, "xnor size mismatch: "
                                          << nbits_ << " vs "
                                          << other.nbits_);
  // Padding bits are zero in both vectors, so they never mismatch.
  return nbits_ - static_cast<Dim>(detail::kernels().xor_pop(
                      words_.data(), other.words_.data(),
                      static_cast<Dim>(words_.size())));
}

std::int64_t BitVector::dot_bipolar(const BitVector& other) const {
  return 2 * static_cast<std::int64_t>(xnor_matches(other)) - nbits_;
}

Dim BitVector::popcount() const {
  Dim count = 0;
  for (std::uint64_t w : words_) count += std::popcount(w);
  return count;
}

BitMatrix::BitMatrix(Dim rows, Dim cols)
    : rows_(rows),
      cols_(cols),
      words_per_row_(words_for(cols)),
      words_(static_cast<std::size_t>(rows * words_per_row_), 0) {
  MPCNN_CHECK(rows >= 0 && cols >= 0, "negative BitMatrix shape");
}

void BitMatrix::set(Dim r, Dim c, bool v) {
  MPCNN_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_,
               "BitMatrix index (" << r << ", " << c << ")");
  const std::size_t w =
      static_cast<std::size_t>(r * words_per_row_ + (c >> 6));
  const std::uint64_t mask = 1ULL << (c & 63);
  if (v) {
    words_[w] |= mask;
  } else {
    words_[w] &= ~mask;
  }
}

bool BitMatrix::get(Dim r, Dim c) const {
  MPCNN_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_,
               "BitMatrix index (" << r << ", " << c << ")");
  return (words_[static_cast<std::size_t>(r * words_per_row_ + (c >> 6))] >>
          (c & 63)) &
         1ULL;
}

void copy_bits(const std::uint64_t* src, Dim src_bit, std::uint64_t* dst,
               Dim dst_bit, Dim count) {
  MPCNN_CHECK(src_bit >= 0 && dst_bit >= 0 && count >= 0,
              "copy_bits negative argument");
  while (count > 0) {
    const Dim n = std::min<Dim>(count, 64);
    deposit_word(dst, dst_bit, extract_word(src, src_bit, n), n);
    src_bit += n;
    dst_bit += n;
    count -= n;
  }
}

BitMatrix bit_im2col(const std::uint64_t* planes, Dim plane_words, Dim ch,
                     Dim h, Dim w, Dim kernel) {
  MPCNN_CHECK(ch > 0 && h > 0 && w > 0, "bit_im2col empty image");
  MPCNN_CHECK(kernel > 0 && kernel <= h && kernel <= w && kernel <= 64,
              "bit_im2col kernel " << kernel << " for " << h << "x" << w);
  MPCNN_CHECK(plane_words >= words_for(h * w),
              "plane stride " << plane_words << " too small for " << h << "x"
                              << w);
  const Dim out_h = h - kernel + 1;
  const Dim out_w = w - kernel + 1;
  const Dim positions = out_h * out_w;
  BitMatrix patches(positions, ch * kernel * kernel);
  const Dim wpr = patches.words_per_row();
  const std::uint64_t kmask = mask_n(kernel);
  // Sweep each (output row, channel, kernel row) lane once: the window
  // slides one source bit per output column, so a rolling 64-bit buffer
  // turns every splice into mask / shifted-OR / shift — all destination
  // offsets are loop-invariant per lane (dst_bit doesn't depend on ow).
  // Chunks own whole rows of `patches` (word-aligned), so parallel
  // writers never share a word.
  core::parallel_for(0, out_h, 1, [&](Dim oh0, Dim oh1) {
    for (Dim oh = oh0; oh < oh1; ++oh) {
      std::uint64_t* rowbase = patches.row_data(oh * out_w);
      for (Dim c = 0; c < ch; ++c) {
        const std::uint64_t* plane = planes + c * plane_words;
        for (Dim kh = 0; kh < kernel; ++kh) {
          const Dim dst_bit = (c * kernel + kh) * kernel;
          const Dim off = dst_bit & 63;
          const bool spill = off + kernel > 64;
          const Dim src0 = (oh + kh) * w;
          std::uint64_t* dst = rowbase + (dst_bit >> 6);
          std::uint64_t buf = 0;
          Dim bitpos = src0;
          Dim avail = 0;
          for (Dim ow = 0; ow < out_w; ++ow, dst += wpr) {
            if (avail < kernel) {
              const Dim take = std::min<Dim>(64, src0 + w - bitpos);
              buf = extract_word(plane, bitpos, take);
              avail = take;
            }
            const std::uint64_t window = buf & kmask;
            dst[0] |= window << off;
            if (spill) dst[1] |= window >> (64 - off);
            buf >>= 1;
            --avail;
            ++bitpos;
          }
        }
      }
    }
  });
  return patches;
}

namespace {

// Thread chunks of A rows stay a multiple of 4 so chunk edges fall on
// the kernel's quad-row block edges.
constexpr Dim kXnorGrain = 4;

// The xnor ABFT reference rides the active xor-popcount dispatch (the
// masked column counts reduce to xor_pop via the ∧/⊕ identity), so the
// checksum accelerates with the kernel it guards.
const char* xnor_checksum_variant() { return detail::kernels().pop_name; }
[[maybe_unused]] const bool kXnorChecksumSlotRegistered =
    core::register_kernel_slot("integrity.xnor_checksum",
                               &xnor_checksum_variant);

}  // namespace

void xnor_gemm(const BitMatrix& a, const BitMatrix& b, std::int32_t* c) {
  MPCNN_CHECK(a.cols() == b.cols(), "xnor_gemm column mismatch: "
                                        << a.cols() << " vs " << b.cols());
  // ABFT guard (core/integrity): the ±1 column-sum identity is exact
  // integer arithmetic, so any single corrupted accumulator trips it.
  // An inactive guard costs one thread-local load.
  namespace integ = core::integrity;
  integ::XnorGuard guard = integ::xnor_begin();
  const Dim n = b.rows();
  const Dim wpr = a.words_per_row();
  const Dim cols = a.cols();
  const detail::BnnKernels& kern = detail::kernels();
  core::parallel_for(0, a.rows(), kXnorGrain, [&](Dim r0, Dim r1) {
    Dim r = r0;
    for (; r + 4 <= r1; r += 4) {
      const std::uint64_t* ar = a.row_data(r);
      std::int32_t* crow = c + r * n;
      for (Dim p = 0; p < n; ++p) {
        std::int64_t m[4];
        kern.xor_pop4(ar, wpr, b.row_data(p), wpr, m);
        crow[p] = static_cast<std::int32_t>(cols - 2 * m[0]);
        crow[n + p] = static_cast<std::int32_t>(cols - 2 * m[1]);
        crow[2 * n + p] = static_cast<std::int32_t>(cols - 2 * m[2]);
        crow[3 * n + p] = static_cast<std::int32_t>(cols - 2 * m[3]);
      }
    }
    for (; r < r1; ++r) {
      const std::uint64_t* ar = a.row_data(r);
      std::int32_t* crow = c + r * n;
      for (Dim p = 0; p < n; ++p) {
        crow[p] = static_cast<std::int32_t>(
            cols - 2 * kern.xor_pop(ar, b.row_data(p), wpr));
      }
    }
  });
  integ::xnor_end(guard, a.row_data(0), a.rows(), cols, wpr, b.row_data(0),
                  n, c, kern.xor_pop, kern.xor_pop4);
}

}  // namespace mpcnn::bnn
