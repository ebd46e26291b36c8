// Lane tails against a guard page.
//
// The vector kernels load and store the last group of lanes (or columns)
// of a buffer under a mask.  A full-width access there reads or writes
// past the buffer's end; in an ordinary heap buffer that lands in mapped
// memory and feeds only dropped lanes, so the results stay right and
// only a sanitizer would notice.  Here each such buffer ends exactly at a
// PROT_NONE page of the test's own mmap, so an access past the end faults
// in every build:
//  - the BNN stage kernels' last weight lane, bound and accumulator lane
//    (xnor_conv, xnor_acc, byte_conv) at cstride ≡ 4 mod 8, half of an
//    8-lane AVX-512 group;
//  - the float GEMM tile's last in-place row of B and last row of C at
//    column tails N % 16 ∈ {1, 15}.
// Each kernel also has to match the scalar-forced run bit for bit.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bnn/kernels.hpp"
#include "core/cpu.hpp"
#include "isa_override.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"

namespace mpcnn {
namespace {

using isa_test::IsaOverride;

// n elements of T whose last one ends where a PROT_NONE page begins.
template <class T>
class GuardedArray {
 public:
  explicit GuardedArray(std::size_t n) {
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t bytes = n * sizeof(T);
    const std::size_t data_pages = (bytes + page - 1) / page;
    len_ = (data_pages + 1) * page;
    void* base = ::mmap(nullptr, len_, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<unsigned char*>(base);
    if (::mprotect(base_ + data_pages * page, page, PROT_NONE) != 0) {
      ::munmap(base_, len_);
      throw std::bad_alloc();
    }
    data_ = reinterpret_cast<T*>(base_ + data_pages * page - bytes);
  }
  ~GuardedArray() { ::munmap(base_, len_); }
  GuardedArray(const GuardedArray&) = delete;
  GuardedArray& operator=(const GuardedArray&) = delete;

  T* data() { return data_; }
  void assign(const std::vector<T>& v) {
    std::copy(v.begin(), v.end(), data_);
  }

 private:
  std::size_t len_ = 0;
  unsigned char* base_ = nullptr;
  T* data_ = nullptr;
};

bool level_supported(core::Isa isa) {
  const std::vector<core::Isa> levels = core::supported_isas();
  return std::find(levels.begin(), levels.end(), isa) != levels.end();
}

// The vector levels this CPU runs: the ones with masked tails.
std::vector<std::string> vector_levels() {
  std::vector<std::string> out;
  for (const core::Isa isa : {core::Isa::kAvx2, core::Isa::kAvx512}) {
    if (level_supported(isa)) out.push_back(core::isa_name(isa));
  }
  return out;
}

// ---- BNN stage kernels ------------------------------------------------

// A K = 1 source of word-aligned rows: `rows` pixels of `words` words
// each, one output row, plus the spare word every map keeps.
struct StageCase {
  std::int64_t channels;  // cstride = channels, ≡ 4 mod 8
  std::int64_t words;     // patch words per row
  std::int64_t rows;
};

const StageCase kStageCases[] = {{4, 2, 3}, {12, 2, 5}, {20, 3, 4},
                                 {68, 2, 3}};

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  for (std::uint64_t& x : v) x = rng.next_u64();
  return v;
}

bnn::detail::PatchSource source_of(const std::vector<std::uint64_t>& map,
                                   const StageCase& s, std::int64_t unit) {
  return {map.data(), 64 * s.words / unit, s.rows, 1, s.rows, s.rows};
}

std::size_t out_words(const StageCase& s) {
  return static_cast<std::size_t>((s.rows * s.channels + 63) / 64 + 1);
}

// Runs a stage kernel (xnor_conv or byte_conv, chosen by `byte`) with
// its weights and bounds in guarded buffers at `level`.
std::vector<std::uint64_t> run_stage(const std::string& level, bool byte,
                                     const StageCase& s,
                                     const std::vector<std::uint64_t>& w,
                                     const std::vector<std::int64_t>& bound,
                                     const std::vector<std::uint64_t>& map) {
  IsaOverride isa(level);
  const bnn::detail::BnnKernels& k = bnn::detail::kernels();
  GuardedArray<std::uint64_t> gw(w.size());
  GuardedArray<std::int64_t> gbound(bound.size());
  gw.assign(w);
  gbound.assign(bound);
  const std::vector<std::uint64_t> flip(
      static_cast<std::size_t>((s.channels + 63) / 64), 0x5555555555555555ULL);
  std::vector<std::uint64_t> out(out_words(s), 0);
  const bnn::detail::StageKernelFn fn = byte ? k.byte_conv : k.xnor_conv;
  fn(gw.data(), s.channels, gbound.data(), flip.data(), s.channels,
     source_of(map, s, byte ? 8 : 1), out.data());
  return out;
}

TEST(LaneTailGuard, XnorConvLastWeightLaneAndBound) {
  for (const StageCase& s : kStageCases) {
    ASSERT_EQ(s.channels % 8, 4);
    const std::vector<std::uint64_t> w = random_words(
        static_cast<std::size_t>(s.words * s.channels), 3 + s.channels);
    const std::vector<std::uint64_t> map = random_words(
        static_cast<std::size_t>(s.rows * s.words + 1), 5 + s.channels);
    std::vector<std::int64_t> bound(static_cast<std::size_t>(s.channels));
    for (std::size_t c = 0; c < bound.size(); ++c) {
      bound[c] = 32 * s.words - 8 + static_cast<std::int64_t>(c % 16);
    }
    const std::vector<std::uint64_t> want =
        run_stage("scalar", false, s, w, bound, map);
    for (const std::string& level : vector_levels()) {
      EXPECT_EQ(run_stage(level, false, s, w, bound, map), want)
          << "isa=" << level << " channels=" << s.channels;
    }
  }
}

TEST(LaneTailGuard, ByteConvLastWeightLaneAndBound) {
  for (const StageCase& s : kStageCases) {
    ASSERT_EQ(s.channels % 8, 4);
    // ±1 weight bytes: 0x01 where a random bit is set, else 0xFF.
    std::vector<std::uint64_t> w = random_words(
        static_cast<std::size_t>(s.words * s.channels), 7 + s.channels);
    for (std::uint64_t& x : w) {
      std::uint64_t bytes = 0;
      for (int b = 0; b < 8; ++b) {
        bytes |= ((x >> b) & 1 ? 0x01ULL : 0xFFULL) << (8 * b);
      }
      x = bytes;
    }
    const std::vector<std::uint64_t> map = random_words(
        static_cast<std::size_t>(s.rows * s.words + 1), 11 + s.channels);
    std::vector<std::int64_t> bound(static_cast<std::size_t>(s.channels));
    for (std::size_t c = 0; c < bound.size(); ++c) {
      bound[c] = (static_cast<std::int64_t>(c % 9) - 4) * 64;
    }
    const std::vector<std::uint64_t> want =
        run_stage("scalar", true, s, w, bound, map);
    for (const std::string& level : vector_levels()) {
      EXPECT_EQ(run_stage(level, true, s, w, bound, map), want)
          << "isa=" << level << " channels=" << s.channels;
    }
  }
}

TEST(LaneTailGuard, XnorAccLastWeightAndAccumulatorLane) {
  for (const StageCase& s : kStageCases) {
    ASSERT_EQ(s.channels % 8, 4);
    const std::vector<std::uint64_t> w = random_words(
        static_cast<std::size_t>(s.words * s.channels), 13 + s.channels);
    const std::vector<std::uint64_t> map = random_words(
        static_cast<std::size_t>(s.rows * s.words + 1), 17 + s.channels);
    const std::size_t acc_n = static_cast<std::size_t>(s.rows * s.channels);
    auto run = [&](const std::string& level) {
      IsaOverride isa(level);
      GuardedArray<std::uint64_t> gw(w.size());
      GuardedArray<std::int32_t> gacc(acc_n);
      gw.assign(w);
      bnn::detail::kernels().xnor_acc(gw.data(), s.channels, s.channels,
                                      source_of(map, s, 1), 64 * s.words,
                                      gacc.data());
      return std::vector<std::int32_t>(gacc.data(), gacc.data() + acc_n);
    };
    const std::vector<std::int32_t> want = run("scalar");
    for (const std::string& level : vector_levels()) {
      EXPECT_EQ(run(level), want)
          << "isa=" << level << " channels=" << s.channels;
    }
  }
}

// ---- float GEMM tile --------------------------------------------------

// B (K×N, read in place) and C (M×N) end at guard pages.  M = 7 takes a
// 6-row block and a 1-row block; K = 300 takes two k-tiles, so C is read
// back from memory in the second one even when beta = 0.  N = 273 puts
// the tail of a second 256-column block against the page.
TEST(LaneTailGuard, GemmTileLastBRowAndCRow) {
  constexpr std::int64_t M = 7, K = 300;
  for (const std::int64_t N : {1, 15, 17, 31, 33, 47, 273}) {
    ASSERT_TRUE(N % 16 == 1 || N % 16 == 15);
    Rng rng(static_cast<std::uint64_t>(N));
    std::vector<float> a(static_cast<std::size_t>(M * K));
    std::vector<float> b(static_cast<std::size_t>(K * N));
    std::vector<float> c0(static_cast<std::size_t>(M * N));
    for (float& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& x : c0) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (const float beta : {0.5f, 0.0f}) {
      auto run = [&](const std::string& level) {
        IsaOverride isa(level);
        GuardedArray<float> gb(b.size());
        GuardedArray<float> gc(c0.size());
        gb.assign(b);
        gc.assign(c0);
        gemm(M, N, K, 0.75f, a.data(), gb.data(), beta, gc.data());
        return std::vector<float>(gc.data(), gc.data() + c0.size());
      };
      const std::vector<float> want = run("scalar");
      for (const std::string& level : vector_levels()) {
        const std::vector<float> got = run(level);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << "isa=" << level << " N=" << N << " beta=" << beta;
      }
    }
  }
}

}  // namespace
}  // namespace mpcnn
