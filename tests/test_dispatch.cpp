// Runtime-ISA dispatch equivalence.
//
// Every kernel the CPU-feature registry can bind (generic/SSE2/AVX2 GEMM
// tiles, SWAR/POPCNT/AVX2 XNOR conv, portable/AVX2 byte convolution)
// must produce *bit-identical* results: the dispatcher may
// only change speed, never a single output bit, at any thread count.
// These tests force each level through MPCNN_ISA + refresh_isa() and
// compare against the scalar-forced run and the naive oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bnn/bitpack.hpp"
#include "bnn/compile.hpp"
#include "bnn/topology.hpp"
#include "core/cpu.hpp"
#include "core/threadpool.hpp"
#include "isa_override.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"

namespace mpcnn {
namespace {

using isa_test::IsaOverride;
using isa_test::supported_levels;

struct PoolSizeRestore {
  int prior = core::thread_count();
  ~PoolSizeRestore() { core::set_thread_count(prior); }
};

std::vector<float> random_floats(Dim n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

bnn::BitMatrix random_bits(Dim rows, Dim cols, std::uint64_t seed) {
  Rng rng(seed);
  bnn::BitMatrix m(rows, cols);
  for (Dim r = 0; r < rows; ++r) {
    for (Dim c = 0; c < cols; ++c) {
      m.set(r, c, rng.uniform(0.0, 1.0) < 0.5);
    }
  }
  return m;
}

// ---- registry introspection -------------------------------------------

TEST(DispatchRegistry, ReportsEveryKernelSlot) {
  const auto bindings = core::kernel_bindings();
  std::vector<std::string> slots;
  for (const auto& b : bindings) {
    slots.push_back(b.slot);
    EXPECT_FALSE(b.variant.empty()) << b.slot;
  }
  for (const char* expected :
       {"bnn.byte_conv", "bnn.xnor_conv", "gemm.bt", "gemm.tile",
        "integrity.xnor_checksum"}) {
    EXPECT_NE(std::find(slots.begin(), slots.end(), expected), slots.end())
        << "slot " << expected << " not registered";
  }
  EXPECT_TRUE(std::is_sorted(slots.begin(), slots.end()));
}

TEST(DispatchRegistry, ScalarForcedBindsPortableVariants) {
  IsaOverride scalar("scalar");
  EXPECT_EQ(core::active_isa(), core::Isa::kScalar);
  for (const auto& b : core::kernel_bindings()) {
    if (b.slot == "gemm.tile") {
      EXPECT_EQ(b.variant, "generic");
    }
    if (b.slot == "gemm.bt") {
      EXPECT_EQ(b.variant, "dot");
    }
    if (b.slot == "bnn.xnor_conv" || b.slot == "integrity.xnor_checksum") {
      EXPECT_EQ(b.variant, "scalar");
    }
    if (b.slot == "bnn.byte_conv") {
      EXPECT_EQ(b.variant, "portable");
    }
  }
}

// MPCNN_ISA=avx512 binds the AVX-512 stage kernels and the 512-bit float
// GEMM tile, with the A·Bᵀ tile on AVX2's panel tile, where the CPU has
// every feature the level needs, and is refused where it does not.
TEST(DispatchRegistry, Avx512ForcedBindsAvx512VariantsOrThrows) {
  const std::vector<core::Isa> levels = core::supported_isas();
  if (std::find(levels.begin(), levels.end(), core::Isa::kAvx512) ==
      levels.end()) {
    const core::Isa before = core::active_isa();
    ::setenv("MPCNN_ISA", "avx512", 1);
    EXPECT_THROW(core::refresh_isa(), Error);
    ::unsetenv("MPCNN_ISA");
    EXPECT_EQ(core::active_isa(), before);
    core::refresh_isa();
    return;
  }
  IsaOverride avx512("avx512");
  EXPECT_EQ(core::active_isa(), core::Isa::kAvx512);
  EXPECT_NE(core::cpu_signature().find("isa=avx512"), std::string::npos);
  for (const auto& b : core::kernel_bindings()) {
    if (b.slot == "gemm.tile") {
      EXPECT_EQ(b.variant, "avx512");
    }
    if (b.slot == "gemm.bt") {
      EXPECT_EQ(b.variant, "avx2-panel");
    }
    if (b.slot == "bnn.xnor_conv" || b.slot == "bnn.byte_conv" ||
        b.slot == "integrity.xnor_checksum") {
      EXPECT_EQ(b.variant, "avx512") << b.slot;
    }
  }
}

TEST(DispatchRegistry, SupportedLevelsAscendFromScalar) {
  const std::vector<core::Isa> levels = core::supported_isas();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), core::Isa::kScalar);
  EXPECT_TRUE(std::is_sorted(levels.begin(), levels.end()));
  if (!core::isa_forced()) {
    EXPECT_EQ(levels.back(), core::active_isa());  // the default level
  }
}

TEST(DispatchRegistry, UnknownIsaNameThrowsAndKeepsState) {
  const core::Isa before = core::active_isa();
  ::setenv("MPCNN_ISA", "simd-ish", 1);
  EXPECT_THROW(core::refresh_isa(), Error);
  ::unsetenv("MPCNN_ISA");
  EXPECT_EQ(core::active_isa(), before);  // failed refresh left state intact
  core::refresh_isa();
}

TEST(DispatchRegistry, RefreshBumpsGeneration) {
  const int before = core::isa_generation();
  core::refresh_isa();
  EXPECT_GT(core::isa_generation(), before);
}

TEST(DispatchRegistry, SignatureNamesActiveLevel) {
  IsaOverride scalar("scalar");
  EXPECT_NE(core::cpu_signature().find("isa=scalar"), std::string::npos);
}

// ---- GEMM bit-identity ------------------------------------------------

// Shapes exercising every tile tail: single rows/columns, exact register
// widths, one-off widths, and K spanning multiple packing panels.  The
// vector tiles take rows in blocks of 6 and two vectors of columns (16
// at 256 bits, 32 at 512), so M = 6k+1 … 6k+5 leave every row-tail
// block, N tails of 1, 15, 17, 31 and 33 past a 16- or 32-column block
// leave every masked column tail, and K = 256/257 puts kb at the k-tile
// edge, the α·A buffer's bound.  The served batch-1 conv shapes of
// Models C and A are included as they run.
struct GemmShape {
  Dim m, n, k;
};

const GemmShape kShapes[] = {
    {1, 1, 1},       {1, 3, 1},       {3, 1, 3},         {4, 16, 8},
    {5, 17, 9},      {63, 255, 257},  {65, 3, 255},      {1, 257, 63},
    {127, 129, 1},   {66, 258, 3},    {129, 511, 259},
    // row tails past one and two 6-row blocks, and whole blocks
    {7, 33, 20},     {8, 47, 21},     {9, 49, 22},       {10, 63, 23},
    {11, 65, 24},    {13, 17, 19},    {14, 31, 18},      {15, 15, 17},
    {16, 1, 16},     {17, 16, 15},    {12, 32, 14},      {18, 48, 13},
    {24, 64, 12},    {36, 80, 11},
    // k-tile edge: kb = 256, and 256 + 1
    {7, 33, 256},    {13, 17, 257},   {6, 31, 256},      {5, 49, 257},
    // served conv GEMMs (out channels × positions × patch)
    {18, 1024, 162}, {36, 256, 324},  {12, 225, 300},    {24, 49, 300}};

using GemmFn = void (*)(std::int64_t, std::int64_t, std::int64_t, float,
                        const float*, const float*, float, float*);

// beta = 0.25 scales the old C; beta = 0 must ignore it (NaN here) and
// start every chain from +0.0, as the scalar tile does.
void expect_bit_identical_across_levels(GemmFn fn, const char* what) {
  for (const GemmShape& s : kShapes) {
    const std::vector<float> a = random_floats(s.m * s.k, 11 + s.m);
    const std::vector<float> b = random_floats(s.k * s.n, 23 + s.n);
    for (const float beta : {0.25f, 0.0f}) {
      const std::vector<float> c0 =
          beta != 0.0f ? random_floats(s.m * s.n, 37 + s.k)
                       : std::vector<float>(static_cast<std::size_t>(s.m * s.n),
                                            std::nanf(""));
      std::vector<float> want;
      {
        IsaOverride scalar("scalar");
        want = c0;
        fn(s.m, s.n, s.k, 0.75f, a.data(), b.data(), beta, want.data());
      }
      for (const std::string& level : supported_levels()) {
        IsaOverride isa(level);
        std::vector<float> got = c0;
        fn(s.m, s.n, s.k, 0.75f, a.data(), b.data(), beta, got.data());
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << what << " isa=" << level << " shape " << s.m << "x" << s.n
            << "x" << s.k << " beta=" << beta
            << " diverged from the scalar-forced run";
      }
    }
  }
}

TEST(DispatchGemm, GemmBitIdenticalAcrossIsaLevels) {
  expect_bit_identical_across_levels(&gemm, "gemm");
}

TEST(DispatchGemm, GemmAtBitIdenticalAcrossIsaLevels) {
  expect_bit_identical_across_levels(&gemm_at, "gemm_at");
}

TEST(DispatchGemm, GemmBtBitIdenticalAcrossIsaLevels) {
  expect_bit_identical_across_levels(&gemm_bt, "gemm_bt");
}

// With beta = 0 every chain starts from +0.0: a row of A that is all
// zeros against a negative B forms only −0.0 products, and
// +0.0 + (−0.0) is +0.0.  A tile that started from its first product
// would leave −0.0 there.
TEST(DispatchGemm, BetaZeroChainsStartFromPositiveZero) {
  const GemmShape s{7, 33, 5};
  std::vector<float> a = random_floats(s.m * s.k, 41);
  std::fill(a.begin(), a.begin() + s.k, 0.0f);
  std::vector<float> b = random_floats(s.k * s.n, 43);
  for (float& x : b) x = -std::fabs(x) - 0.5f;
  for (const std::string& level : supported_levels()) {
    IsaOverride isa(level);
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n), std::nanf(""));
    gemm(s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    for (Dim j = 0; j < s.n; ++j) {
      ASSERT_FALSE(std::signbit(c[static_cast<std::size_t>(j)]))
          << "isa=" << level << " column " << j;
      ASSERT_EQ(c[static_cast<std::size_t>(j)], 0.0f);
    }
  }
}

TEST(DispatchGemm, DispatchedGemmStaysNearNaiveOracle) {
  for (const std::string& level : supported_levels()) {
    IsaOverride isa(level);
    const GemmShape s{65, 257, 300};
    const std::vector<float> a = random_floats(s.m * s.k, 3);
    const std::vector<float> b = random_floats(s.k * s.n, 5);
    std::vector<float> got(static_cast<std::size_t>(s.m * s.n), 0.0f);
    std::vector<float> want = got;
    gemm(s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f, got.data());
    gemm_naive(s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f, want.data());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-3f * static_cast<float>(s.k))
          << "isa=" << level << " element " << i;
    }
  }
}

TEST(DispatchGemm, BitIdenticalAcrossThreadCountsPerIsa) {
  PoolSizeRestore restore;
  const GemmShape s{66, 258, 131};
  const std::vector<float> a = random_floats(s.m * s.k, 7);
  const std::vector<float> b = random_floats(s.k * s.n, 9);
  for (const std::string& level : supported_levels()) {
    IsaOverride isa(level);
    core::set_thread_count(1);
    std::vector<float> serial(static_cast<std::size_t>(s.m * s.n), 0.0f);
    gemm(s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f, serial.data());
    for (int threads : {2, 7}) {
      core::set_thread_count(threads);
      std::vector<float> threaded(serial.size(), 0.0f);
      gemm(s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f,
           threaded.data());
      ASSERT_EQ(std::memcmp(serial.data(), threaded.data(),
                            serial.size() * sizeof(float)),
                0)
          << "isa=" << level << " threads=" << threads;
    }
  }
}

// ---- packed-bit kernel bit-identity -----------------------------------

TEST(DispatchXnor, MatchesPerBitOracleOnEveryLevel) {
  for (Dim cols : {1, 63, 64, 65, 127, 200}) {
    const bnn::BitMatrix a = random_bits(9, cols, 41 + cols);
    const bnn::BitMatrix b = random_bits(7, cols, 43 + cols);
    // Per-bit oracle, no word tricks at all.
    std::vector<std::int32_t> want(static_cast<std::size_t>(9 * 7));
    for (Dim r = 0; r < 9; ++r) {
      for (Dim p = 0; p < 7; ++p) {
        Dim matches = 0;
        for (Dim c = 0; c < cols; ++c) {
          matches += a.get(r, c) == b.get(p, c) ? 1 : 0;
        }
        want[static_cast<std::size_t>(r * 7 + p)] =
            static_cast<std::int32_t>(2 * matches - cols);
      }
    }
    for (const std::string& level : supported_levels()) {
      IsaOverride isa(level);
      std::vector<std::int32_t> got(want.size(), 0);
      bnn::xnor_gemm(a, b, got.data());
      ASSERT_EQ(got, want) << "isa=" << level << " cols=" << cols;
    }
  }
}

TEST(DispatchBnn, PackedScoresIdenticalAcrossIsaLevels) {
  bnn::CnvConfig config;
  config.width = 0.125f;
  config.fc_width = 64;
  nn::Net graph = bnn::make_cnv_net(config);
  Rng rng(53);
  graph.init(rng);
  const bnn::CompiledBnn net = bnn::compile_bnn(graph);
  Tensor img(Shape{1, 3, 32, 32});
  img.fill_uniform(rng, 0.0f, 1.0f);

  std::vector<std::int32_t> want;
  {
    IsaOverride scalar("scalar");
    // The generic oracle is the ground truth; the scalar-forced packed
    // engine must already agree with it.
    want = bnn::run_reference(net, img, bnn::BnnExec::kOracle);
    ASSERT_EQ(bnn::run_reference(net, img, bnn::BnnExec::kPacked), want);
  }
  for (const std::string& level : supported_levels()) {
    IsaOverride isa(level);
    EXPECT_EQ(bnn::run_reference(net, img, bnn::BnnExec::kPacked), want)
        << "isa=" << level;
  }
}

}  // namespace
}  // namespace mpcnn
