// Packed-vs-oracle equivalence of the compiled-BNN engine.
//
// The word-parallel engine (channels-last bit maps, all-channel stage
// kernels with the threshold compare fused in) must reproduce the
// generic L-level oracle bit for bit: identical class scores on every
// compiled topology and on hand-built hostile geometries, at every ISA
// level and thread count, with and without ABFT instrumentation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bnn/compile.hpp"
#include "bnn/topology.hpp"
#include "core/integrity/integrity.hpp"
#include "core/threadpool.hpp"
#include "isa_override.hpp"
#include "tensor/rng.hpp"

namespace mpcnn::bnn {
namespace {

struct PoolSizeRestore {
  int prior = core::thread_count();
  ~PoolSizeRestore() { core::set_thread_count(prior); }
};

// Compiles a randomly initialised CNV-style net and draws a few images.
struct PackedFixture {
  CompiledBnn net;
  Tensor images{Shape{0}};

  PackedFixture(float width, Dim fc_width, std::uint64_t seed, Dim n = 4) {
    CnvConfig config;
    config.width = width;
    config.fc_width = fc_width;
    nn::Net graph = make_cnv_net(config);
    Rng rng(seed);
    graph.init(rng);
    net = compile_bnn(graph);
    images = Tensor(Shape{n, 3, 32, 32});
    images.fill_uniform(rng, 0.0f, 1.0f);
  }

  Tensor image(Dim i) const {
    Tensor out(Shape{1, 3, 32, 32});
    const Dim per = out.numel();
    for (Dim j = 0; j < per; ++j) out[j] = images[i * per + j];
    return out;
  }
};

void expect_scores_equal(const PackedFixture& fx) {
  for (Dim i = 0; i < fx.images.shape()[0]; ++i) {
    const Tensor img = fx.image(i);
    const auto packed = run_reference(fx.net, img, BnnExec::kPacked);
    const auto oracle = run_reference(fx.net, img, BnnExec::kOracle);
    ASSERT_EQ(packed, oracle) << "image " << i;
  }
}

// Three Model A/B/C-style operating points of the CNV family: the packed
// engine must match the oracle on every topology, not just one shape.
TEST(PackedBnn, ScoresMatchScalarOnNarrowNet) {
  expect_scores_equal(PackedFixture(0.125f, 64, 53));
}

TEST(PackedBnn, ScoresMatchScalarOnQuarterWidthNet) {
  expect_scores_equal(PackedFixture(0.25f, 96, 67));
}

TEST(PackedBnn, ScoresMatchScalarOnHalfWidthNet) {
  expect_scores_equal(PackedFixture(0.5f, 128, 79, 2));
}

TEST(PackedBnn, BatchMatchesPerImageScores) {
  const PackedFixture fx(0.25f, 64, 83);
  const auto batch = run_reference_batch(fx.net, fx.images,
                                         BnnExec::kPacked);
  ASSERT_EQ(batch.size(), static_cast<std::size_t>(fx.images.shape()[0]));
  for (Dim i = 0; i < fx.images.shape()[0]; ++i) {
    EXPECT_EQ(batch[static_cast<std::size_t>(i)],
              run_reference(fx.net, fx.image(i), BnnExec::kOracle))
        << "image " << i;
  }
}

TEST(Determinism, PackedBnnReferenceIdenticalAcrossThreadCounts) {
  PoolSizeRestore restore;
  const PackedFixture fx(0.25f, 64, 53);

  core::set_thread_count(1);
  const auto serial = run_reference_batch(fx.net, fx.images,
                                          BnnExec::kPacked);
  for (int threads : {2, 4, 7}) {
    core::set_thread_count(threads);
    const auto threaded = run_reference_batch(fx.net, fx.images,
                                              BnnExec::kPacked);
    ASSERT_EQ(serial, threaded) << "threads=" << threads;
  }
}

// ---- hand-built hostile geometries -------------------------------------

// One stage of a hand-built net.  Convs carry a kernel; dense stages an
// output width only; the last stage must be kOutputDense.
struct LayerSpec {
  StageKind kind;
  Dim out_ch = 0;
  Dim kernel = 0;
};

struct NetSpec {
  int levels;   // input quantisation level count
  Dim ch, h, w;  // input image
  std::vector<LayerSpec> layers;
};

// Random ±1 weights, random negate flags, and thresholds that mostly
// fall inside the accumulator spread — plus the INT32_MIN / INT32_MAX
// that γ = 0 folding produces.
CompiledStage param_stage(StageKind kind, Dim out_ch, Dim cols,
                          double spread, Rng& rng) {
  CompiledStage s;
  s.kind = kind;
  s.out_ch = out_ch;
  s.weights = BitMatrix(out_ch, cols);
  for (Dim r = 0; r < out_ch; ++r) {
    for (Dim c = 0; c < cols; ++c) s.weights.set(r, c, rng.bernoulli(0.5));
  }
  if (kind == StageKind::kOutputDense) return s;
  for (Dim oc = 0; oc < out_ch; ++oc) {
    const double u = rng.uniform();
    s.thresholds.push_back(
        u < 0.1   ? std::numeric_limits<std::int32_t>::min()
        : u < 0.2 ? std::numeric_limits<std::int32_t>::max()
                  : static_cast<std::int32_t>(
                        std::lround(rng.uniform(-spread, spread))));
    s.negate.push_back(rng.bernoulli(0.5) ? 1 : 0);
  }
  return s;
}

CompiledBnn build_net(const NetSpec& spec, Rng& rng) {
  CompiledBnn net;
  net.input_levels = spec.levels;
  Dim ch = spec.ch, h = spec.h, w = spec.w;
  for (const LayerSpec& l : spec.layers) {
    CompiledStage s;
    if (l.kind == StageKind::kMaxPoolBinary) {
      s.kind = l.kind;
      s.kernel = 2;
      s.out_ch = ch;
      s.out_h = h / 2;
      s.out_w = w / 2;
    } else if (l.kernel > 0) {
      const Dim cols = ch * l.kernel * l.kernel;
      const bool first = net.stages.empty();
      const double spread = first ? 0.6 * spec.levels * std::sqrt(cols)
                                  : 2.0 * std::sqrt(cols);
      s = param_stage(l.kind, l.out_ch, cols, spread, rng);
      s.kernel = l.kernel;
      s.out_h = h - l.kernel + 1;
      s.out_w = w - l.kernel + 1;
      s.in_levels = first ? spec.levels + 1 : 2;
    } else {
      s = param_stage(l.kind, l.out_ch, ch * h * w,
                      2.0 * std::sqrt(ch * h * w), rng);
      s.out_h = s.out_w = 1;
    }
    s.in_ch = s.kernel > 0 ? ch : ch * h * w;  // dense reads the flatten
    s.in_h = s.kernel > 0 ? h : 1;
    s.in_w = s.kernel > 0 ? w : 1;
    net.stages.push_back(s);
    ch = s.out_ch;
    h = s.out_h;
    w = s.out_w;
  }
  net.classes = net.stages.back().out_ch;
  return net;
}

// Channel counts {1, 3, 5, 16, 63, 64, 65, 100, 130, 230} straddle
// words and make pixels of several words; kernels {1, 2, 3, 5} run on
// odd, non-square maps; a pool sees an odd map; the last conv maps (4×3,
// 2×1, 1×6, 3×2, 2×2, 3×2) feed dense stages through the channels-last →
// CHW gather; most output widths are not a multiple of the 4 SIMD lanes.
// The last two nets aim at the stage kernels' patch reader: byte-aligned
// pixels of 8, 24 and 40 bits, first-stage runs of 8k and 8k + 1 bytes,
// maps that end on a word boundary (24 × 8×9 and 5 × 8×8 bits) so the
// last run's last word reaches into the spare word, and 68- and
// 76-channel convs, whose cstride ≡ 4 (mod 8) leaves an AVX-512 lane
// group half past the row.
std::vector<NetSpec> hostile_nets() {
  using K = StageKind;
  return {
      {255, 3, 11, 9,
       {{K::kFixedPointConv, 5, 3}, {K::kBinaryConv, 63, 2},
        {K::kMaxPoolBinary}, {K::kBinaryConv, 65, 1},
        {K::kBinaryDense, 100}, {K::kOutputDense, 10}}},
      {255, 1, 13, 10,
       {{K::kFixedPointConv, 64, 5}, {K::kBinaryConv, 130, 3},
        {K::kMaxPoolBinary}, {K::kBinaryConv, 16, 2},
        {K::kOutputDense, 3}}},
      {255, 5, 7, 12,
       {{K::kFixedPointConv, 100, 1}, {K::kBinaryConv, 1, 3},
        {K::kBinaryConv, 63, 5}, {K::kBinaryDense, 5},
        {K::kOutputDense, 7}}},
      // 16-bit pixels take the portable integer first stage.
      {65535, 130, 5, 4,
       {{K::kFixedPointConv, 3, 2}, {K::kBinaryConv, 64, 2},
        {K::kOutputDense, 5}}},
      // A 1-bit quantiser and 252-byte first-stage patches.
      {1, 63, 9, 9,
       {{K::kFixedPointConv, 3, 2}, {K::kMaxPoolBinary},
        {K::kBinaryConv, 64, 3}, {K::kOutputDense, 5}}},
      // Rows past the kernels' fold points: 576-byte first-stage patches
      // (72 words) and 2,070-bit binary patch rows (33 words), with
      // 230-channel pixels of four words between them.
      {255, 64, 7, 6,
       {{K::kFixedPointConv, 40, 3}, {K::kBinaryConv, 230, 1},
        {K::kBinaryConv, 7, 3}, {K::kBinaryDense, 9},
        {K::kOutputDense, 4}}},
      // 16-byte first-stage runs, then 24-, 40- and 8-bit pixels.
      {255, 8, 9, 10,
       {{K::kFixedPointConv, 24, 2}, {K::kBinaryConv, 40, 3},
        {K::kBinaryConv, 76, 2}, {K::kMaxPoolBinary},
        {K::kBinaryConv, 8, 2}, {K::kOutputDense, 5}}},
      // 17-byte first-stage runs, then 5- and 68-bit pixels (reads off
      // byte boundaries) and a gathered 4×4 dense input.
      {255, 17, 8, 8,
       {{K::kFixedPointConv, 5, 1}, {K::kBinaryConv, 68, 3},
        {K::kBinaryConv, 24, 3}, {K::kBinaryDense, 65},
        {K::kOutputDense, 6}}},
  };
}

// The net cut after stage `last`, with a random output stage reading
// that stage's whole map: every bit of the map then moves every score,
// so no intermediate disagreement can be masked by a later stage.
CompiledBnn readout_after(const CompiledBnn& net, std::size_t last,
                          Rng& rng) {
  CompiledBnn cut;
  cut.input_levels = net.input_levels;
  cut.stages.assign(net.stages.begin(),
                    net.stages.begin() + static_cast<std::ptrdiff_t>(last) + 1);
  const CompiledStage& tail = cut.stages.back();
  const Dim features = tail.out_ch * tail.out_h * tail.out_w;
  CompiledStage out =
      param_stage(StageKind::kOutputDense, 3, features, 0.0, rng);
  out.in_ch = features;
  out.in_h = out.in_w = out.out_h = out.out_w = 1;
  cut.stages.push_back(out);
  cut.classes = 3;
  return cut;
}

TEST(PackedBnn, HostileGeometriesMatchOracle) {
  PoolSizeRestore restore;
  namespace ci = core::integrity;
  Rng rng(97);
  const std::vector<NetSpec> specs = hostile_nets();
  for (std::size_t n = 0; n < specs.size(); ++n) {
    const NetSpec& spec = specs[n];
    const CompiledBnn full = build_net(spec, rng);
    std::vector<CompiledBnn> nets = {full};
    for (std::size_t last = 0; last + 1 < full.stages.size(); ++last) {
      nets.push_back(readout_after(full, last, rng));
    }
    Tensor images(Shape{3, spec.ch, spec.h, spec.w});
    images.fill_uniform(rng, -0.25f, 1.25f);  // clamping included
    for (std::size_t k = 0; k < nets.size(); ++k) {
      const CompiledBnn& net = nets[k];
      const std::string where =
          "net " + std::to_string(n) +
          (k == 0 ? " in full" : " read after stage " + std::to_string(k - 1));
      std::vector<std::vector<std::int32_t>> want;
      for (Dim i = 0; i < images.shape()[0]; ++i) {
        want.push_back(
            run_reference(net, images.slice_batch(i), BnnExec::kOracle));
      }
      for (const std::string& level : isa_test::supported_levels()) {
        isa_test::IsaOverride isa(level);
        for (int threads : {1, 4}) {
          core::set_thread_count(threads);
          ASSERT_EQ(run_reference_batch(net, images, BnnExec::kPacked), want)
              << where << " isa=" << level << " threads=" << threads;
          std::vector<ci::Detection> detections;
          ci::ScopeOptions options;
          options.mode = ci::IntegrityMode::kFull;
          options.sink = &detections;
          ci::Scope scope(options);
          for (Dim i = 0; i < images.shape()[0]; ++i) {
            ASSERT_EQ(run_reference(net, images.slice_batch(i),
                                    BnnExec::kPacked),
                      want[static_cast<std::size_t>(i)])
                << where << " isa=" << level << " threads=" << threads
                << " image " << i << " under kFull";
          }
          EXPECT_TRUE(detections.empty()) << where << " isa=" << level;
        }
      }
    }
  }
}

TEST(PackedBnn, RoundingBoundaryPixelsMatchOracle) {
  // Every rounding boundary (k + 0.5)/255 and one to four ulps either
  // side.  A 1×1 first stage of 255 channels thermometer-codes each
  // pixel (channel oc fires iff the quantised pixel is ≥ oc + 1) and the
  // output stage reads every bit, so any disagreement with the oracle's
  // std::lround changes a score.
  std::vector<float> px;
  for (int k = 0; k < 255; ++k) {
    const float mid = static_cast<float>((k + 0.5) / 255.0);
    float below = mid, above = mid;
    px.push_back(mid);
    for (int ulp = 1; ulp <= 4; ++ulp) {
      below = std::nextafter(below, 0.0f);
      above = std::nextafter(above, 1.0f);
      px.push_back(below);
      px.push_back(above);
    }
  }
  const Dim side = 48;  // 48² ≥ 255 · 9
  ASSERT_LE(static_cast<Dim>(px.size()), side * side);
  Tensor image(Shape{1, 1, side, side});
  for (std::size_t i = 0; i < px.size(); ++i) {
    image[static_cast<Dim>(i)] = px[i];
  }

  CompiledBnn net;
  net.input_levels = 255;
  CompiledStage thermo;
  thermo.kind = StageKind::kFixedPointConv;
  thermo.in_ch = 1;
  thermo.in_h = thermo.in_w = thermo.out_h = thermo.out_w = side;
  thermo.kernel = 1;
  thermo.out_ch = 255;
  thermo.in_levels = 256;
  thermo.weights = BitMatrix(255, 1);
  for (Dim oc = 0; oc < 255; ++oc) {
    thermo.weights.set(oc, 0, true);
    thermo.thresholds.push_back(static_cast<std::int32_t>(oc + 1));
    thermo.negate.push_back(0);
  }
  net.stages.push_back(thermo);
  Rng rng(101);
  CompiledStage out = param_stage(StageKind::kOutputDense, 4,
                                  255 * side * side, 0.0, rng);
  out.in_ch = 255 * side * side;
  out.in_h = out.in_w = out.out_h = out.out_w = 1;
  net.stages.push_back(out);
  net.classes = 4;

  const auto want = run_reference(net, image, BnnExec::kOracle);
  for (const std::string& level : isa_test::supported_levels()) {
    isa_test::IsaOverride isa(level);
    EXPECT_EQ(run_reference(net, image, BnnExec::kPacked), want)
        << "isa=" << level;
  }
}

TEST(PackedBnn, NanPixelThrowsAndInfinitiesSaturate) {
  const PackedFixture fx(0.125f, 64, 89, 1);
  const Tensor img = fx.image(0);
  const Dim at = 1234;
  auto with_pixel = [&](float v) {
    Tensor t = img;
    t[at] = v;
    return t;
  };
  for (BnnExec exec : {BnnExec::kPacked, BnnExec::kOracle}) {
    try {
      run_reference(fx.net, with_pixel(std::nanf("")), exec);
      ADD_FAILURE() << "a NaN pixel was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("pixel 1234 is NaN"),
                std::string::npos)
          << e.what();
    }
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(run_reference(fx.net, with_pixel(inf), exec),
              run_reference(fx.net, with_pixel(1.0f), exec));
    EXPECT_EQ(run_reference(fx.net, with_pixel(-inf), exec),
              run_reference(fx.net, with_pixel(0.0f), exec));
  }
}

}  // namespace
}  // namespace mpcnn::bnn
