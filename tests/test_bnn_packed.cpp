// Packed-vs-oracle equivalence of the compiled-BNN engine.
//
// The word-parallel engine (bit-level im2col + XNOR-popcount GEMM with a
// fused threshold epilogue) must reproduce the generic L-level oracle bit
// for bit: identical class scores on every compiled topology, at any
// thread count.
#include <gtest/gtest.h>

#include <vector>

#include "bnn/compile.hpp"
#include "bnn/topology.hpp"
#include "core/threadpool.hpp"
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

}  // namespace
}  // namespace mpcnn::bnn
