#include "bnn/bitpack.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "bnn/kernels.hpp"
#include "bnn/kernels_impl.hpp"
#include "core/cpu.hpp"
#include "core/integrity/integrity.hpp"

namespace mpcnn::bnn {
namespace detail {
namespace {

// Σ of the eight bytes of v: pairwise into 16-bit lanes (≤ 510 each),
// then one multiply folds the four lanes into the top 16 bits.
std::int64_t byte_sum64(std::uint64_t v) {
  constexpr std::uint64_t kLow = 0x00FF00FF00FF00FFULL;
  v = (v & kLow) + ((v >> 8) & kLow);
  return static_cast<std::int64_t>((v * 0x0001000100010001ULL) >> 48);
}

// Portable byte_conv: SWAR byte sums, one channel at a time, over each
// patch row copied once from the pixels.  A +1 weight byte (0x01) marks
// a pixel to add; a patch row is zero past each run, so
// Σ x·w = 2·Σ_{w=+1} x − Σ x.  The add masks of the weight words depend
// on no position, so they are formed once per call, channel-major.
void byte_conv_portable(const std::uint64_t* w, std::int64_t cstride,
                        const std::int64_t* bound, const std::uint64_t* flip,
                        std::int64_t channels, const PatchSource& src,
                        std::uint64_t* out) {
  constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;
  const PatchWalk s = patch_walk(src, 8);
  const std::int64_t nwords = s.k * s.wpj;
  std::vector<std::uint64_t> add(static_cast<std::size_t>(nwords * channels));
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t t = 0; t < nwords; ++t) {
      const std::uint64_t wt = w[t * cstride + c];
      add[static_cast<std::size_t>(c * nwords + t)] =
          (wt & ~(wt >> 7) & kLowBits) * 0xFF;
    }
  }
  std::vector<std::uint64_t> row(static_cast<std::size_t>(nwords));
  std::int64_t start = 0, ow = 0;
  for (std::int64_t p = 0; p < s.rows; ++p, next_row(s, start, ow)) {
    RowWords r{start, 0};
    std::int64_t total = 0;
    for (std::uint64_t& v : row) {
      v = next_word(s, r);
      total += byte_sum64(v);
    }
    for (std::int64_t c0 = 0; c0 < channels; c0 += 64) {
      const std::int64_t n = std::min<std::int64_t>(64, channels - c0);
      std::uint64_t bits = 0;
      for (std::int64_t j = 0; j < n; ++j) {
        const std::uint64_t* ac =
            add.data() + static_cast<std::size_t>((c0 + j) * nwords);
        std::int64_t plus = 0;
        for (std::int64_t t = 0; t < nwords; ++t) {
          plus += byte_sum64(row[static_cast<std::size_t>(t)] & ac[t]);
        }
        bits |= static_cast<std::uint64_t>(2 * plus - total > bound[c0 + j])
                << j;
      }
      or_field(out, p * channels + c0, bits ^ flip[c0 >> 6]);
    }
  }
}

const BnnKernels& scalar_table() {
  static const BnnKernels t = {"scalar",      "scalar",       "portable",
                               &xor_pop_impl, &xnor_conv_impl, &xnor_acc_impl,
                               &byte_conv_portable};
  return t;
}

const BnnKernels& popcnt_table() {
  if (kBnnPopPopcnt.xor_pop == nullptr) return scalar_table();
  static const BnnKernels t = {"popcnt",
                               "popcnt",
                               "portable",
                               kBnnPopPopcnt.xor_pop,
                               kBnnPopPopcnt.xnor_conv,
                               kBnnPopPopcnt.xnor_acc,
                               &byte_conv_portable};
  return t;
}

const BnnKernels& avx2_table() {
  if (kBnnPopAvx2.xor_pop == nullptr || kByteConvAvx2 == nullptr) {
    return popcnt_table();
  }
  static const BnnKernels t = {"avx2",
                               "avx2",
                               "avx2",
                               kBnnPopAvx2.xor_pop,
                               kBnnPopAvx2.xnor_conv,
                               kBnnPopAvx2.xnor_acc,
                               kByteConvAvx2};
  return t;
}

// Single dot products keep the AVX2 level's xor_pop: they serve only
// BitVector dots and the output stage's few class scores per image.
const BnnKernels& avx512_table() {
  if (kBnnPopAvx512.xnor_conv == nullptr || kByteConvAvx512 == nullptr) {
    return avx2_table();
  }
  static const BnnKernels t = {"avx512",
                               avx2_table().dot_name,
                               "avx512",
                               avx2_table().xor_pop,
                               kBnnPopAvx512.xnor_conv,
                               kBnnPopAvx512.xnor_acc,
                               kByteConvAvx512};
  return t;
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
        k = core::cpu_features().popcnt ? &popcnt_table() : &scalar_table();
        break;
      case core::Isa::kAvx2:
        k = &avx2_table();
        break;
      case core::Isa::kAvx512:
        k = &avx512_table();
        break;
    }
    cur.store(k, std::memory_order_release);
    bound_gen.store(gen, std::memory_order_release);
  }
  return *k;
}

namespace {

const char* bnn_pop_variant() { return kernels().pop_name; }
const char* bnn_dot_variant() { return kernels().dot_name; }
const char* bnn_byte_variant() { return kernels().byte_name; }
[[maybe_unused]] const bool kPopSlotRegistered =
    core::register_kernel_slot("bnn.xor_popcount", &bnn_dot_variant);
[[maybe_unused]] const bool kXnorConvSlotRegistered =
    core::register_kernel_slot("bnn.xnor_conv", &bnn_pop_variant);
[[maybe_unused]] const bool kByteConvSlotRegistered =
    core::register_kernel_slot("bnn.byte_conv", &bnn_byte_variant);

}  // namespace
}  // namespace detail

namespace {

Dim words_for(Dim nbits) { return (nbits + 63) / 64; }

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

void transpose_runs(const BitMatrix& a, Dim kernel, Dim cstride,
                    std::uint64_t* w) {
  const Dim run = a.cols() / kernel;
  for (Dim r = 0; r < a.rows(); ++r) {
    const std::uint64_t* row = a.row_data(r);
    std::uint64_t* dst = w + r;
    for (Dim kh = 0; kh < kernel; ++kh) {
      for (Dim b = 0; b < run; b += 64, dst += cstride) {
        *dst = detail::row_bits(row, kh * run + b,
                                std::min<Dim>(64, run - b));
      }
    }
  }
}

namespace {

// The xnor ABFT checksum rides the stage kernel it guards: its rows are
// extra lanes of the same accumulator-mode lane loop.
const char* xnor_checksum_variant() { return detail::kernels().pop_name; }
[[maybe_unused]] const bool kXnorChecksumSlotRegistered =
    core::register_kernel_slot("integrity.xnor_checksum",
                               &xnor_checksum_variant);

}  // namespace

XnorLanes checked_xnor(const BitMatrix& a, const detail::PatchSource& b,
                       core::integrity::XnorGuard& guard) {
  namespace integ = core::integrity;
  const Dim rows = a.rows();
  const Dim words = b.k * ((b.k * b.c + 63) / 64);
  MPCNN_DCHECK(words == b.k * ((a.cols() / b.k + 63) / 64),
               "checked_xnor row length mismatch");
  const Dim lanes =
      rows + (guard.verify ? integ::xnor_checksum_rows(rows) : 0);
  XnorLanes out;
  out.stride = (lanes + 3) / 4 * 4;
  // The checksum rows are encoded from the very words the kernel reads.
  std::vector<std::uint64_t> w(static_cast<std::size_t>(words * out.stride),
                               0);
  transpose_runs(a, b.k, out.stride, w.data());
  if (guard.verify) integ::xnor_encode(w.data(), out.stride, rows, words);
  out.acc = std::make_unique_for_overwrite<std::int32_t[]>(
      static_cast<std::size_t>(b.rows * out.stride));
  if (b.rows > 0) {
    detail::kernels().xnor_acc(w.data(), out.stride, lanes, b, a.cols(),
                               out.acc.get());
  }
  integ::xnor_end(guard, rows, a.cols(), b.rows, out.acc.get(), out.stride);
  return out;
}

void xnor_gemm(const BitMatrix& a, const BitMatrix& b, std::int32_t* c) {
  MPCNN_CHECK(a.cols() == b.cols(), "xnor_gemm column mismatch: "
                                        << a.cols() << " vs " << b.cols());
  core::integrity::XnorGuard guard = core::integrity::xnor_begin();
  // B's rows are the pixels of a one-row map and each patch is one pixel
  // (K = 1), so a patch row's words are B's row words.
  const Dim n = b.rows();
  const detail::PatchSource src{n > 0 ? b.row_data(0) : nullptr,
                                64 * b.words_per_row(), n, 1, n, n};
  const XnorLanes lanes = checked_xnor(a, src, guard);
  // Transposed in blocks of positions, so both sides stay in cache.
  for (Dim p0 = 0; p0 < n; p0 += 32) {
    const Dim p1 = std::min<Dim>(n, p0 + 32);
    for (Dim r = 0; r < a.rows(); ++r) {
      for (Dim p = p0; p < p1; ++p) c[r * n + p] = lanes.at(r, p);
    }
  }
}

}  // namespace mpcnn::bnn
