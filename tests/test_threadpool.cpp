// Thread-pool semantics and the bit-reproducibility contract: every
// threaded kernel must produce identical bits at 1 and N threads.
#include "core/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bnn/compile.hpp"
#include "bnn/topology.hpp"
#include "nn/conv.hpp"
#include "tensor/error.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"

namespace mpcnn {
namespace {

// Restores the global pool size on scope exit so tests are independent.
struct PoolSizeRestore {
  int prior = core::thread_count();
  ~PoolSizeRestore() { core::set_thread_count(prior); }
};

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  PoolSizeRestore restore;
  core::set_thread_count(4);
  constexpr std::int64_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  core::parallel_for(0, kN, 7, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ChunkBoundariesFollowGrainOnly) {
  // The static partition must not depend on the worker count.
  auto boundaries_at = [](int threads) {
    PoolSizeRestore restore;
    core::set_thread_count(threads);
    std::mutex mu;
    std::set<std::pair<std::int64_t, std::int64_t>> seen;
    core::parallel_for(3, 100, 9, [&](std::int64_t lo, std::int64_t hi) {
      std::lock_guard<std::mutex> g(mu);
      seen.emplace(lo, hi);
    });
    return seen;
  };
  const auto serial = boundaries_at(1);
  const auto threaded = boundaries_at(4);
  EXPECT_EQ(serial, threaded);
  // Spot-check the shape: chunks of 9 starting at 3, short tail.
  EXPECT_TRUE(serial.count({3, 12}) == 1);
  EXPECT_TRUE(serial.count({93, 100}) == 1);
  EXPECT_EQ(serial.size(), 11u);
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  int calls = 0;
  core::parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  core::parallel_for(5, 2, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, PropagatesChunkExceptions) {
  PoolSizeRestore restore;
  core::set_thread_count(4);
  EXPECT_THROW(
      core::parallel_for(0, 64, 4,
                         [&](std::int64_t lo, std::int64_t) {
                           MPCNN_CHECK(lo != 32, "boom at " << lo);
                         }),
      Error);
}

TEST(ThreadPool, RethrowsTheLowestThrowingChunkDeterministically) {
  // Many chunks throw concurrently; whichever lands first in wall time,
  // the rethrown failure must always come from the lowest chunk index —
  // otherwise error messages differ from run to run and 1-vs-N.
  PoolSizeRestore restore;
  for (const int threads : {1, 4}) {
    core::set_thread_count(threads);
    for (int repeat = 0; repeat < 20; ++repeat) {
      std::string message;
      try {
        core::parallel_for(0, 96, 4, [&](std::int64_t lo, std::int64_t) {
          MPCNN_CHECK(lo < 16, "boom at " << lo);
        });
        FAIL() << "parallel_for should have thrown";
      } catch (const Error& e) {
        message = e.what();
      }
      // Chunks starting at 16, 20, 24, … all throw; chunk [16, 20) is
      // the lowest and must win every time at every thread count.
      EXPECT_NE(message.find("boom at 16"), std::string::npos)
          << "threads " << threads << " repeat " << repeat << ": "
          << message;
    }
  }
}

TEST(ThreadPool, SerialGuardRunsInlineOnCallingThread) {
  PoolSizeRestore restore;
  core::set_thread_count(4);
  core::SerialGuard serial;
  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::thread::id> ids;
  core::parallel_for(0, 100, 10, [&](std::int64_t, std::int64_t) {
    ids.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(ids.size(), 10u);
  for (const auto& id : ids) EXPECT_EQ(id, self);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  PoolSizeRestore restore;
  core::set_thread_count(4);
  std::vector<std::atomic<int>> hits(64 * 64);
  for (auto& h : hits) h.store(0);
  core::parallel_for(0, 64, 1, [&](std::int64_t o0, std::int64_t o1) {
    for (std::int64_t o = o0; o < o1; ++o) {
      core::parallel_for(0, 64, 8, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) hits[o * 64 + i].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExplicitInstanceHasRequestedWidth) {
  core::ThreadPool pool(3);
  EXPECT_EQ(pool.threads(), 3);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.parallel_for(0, 4096, 1, [&](std::int64_t, std::int64_t) {
    std::lock_guard<std::mutex> g(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_LE(ids.size(), 3u);
}

TEST(ThreadPool, ResizeChangesConcurrency) {
  PoolSizeRestore restore;
  core::set_thread_count(2);
  EXPECT_EQ(core::thread_count(), 2);
  core::set_thread_count(5);
  EXPECT_EQ(core::thread_count(), 5);
}

// ---------------------------------------------------------------------
// Determinism: bit-identical results at 1 vs N threads.

std::vector<float> random_matrix(Dim rows, Dim cols, Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(rows * cols));
  for (float& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

void expect_bits_equal(const std::vector<float>& a,
                       const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(Determinism, GemmVariantsBitIdenticalAcrossThreadCounts) {
  PoolSizeRestore restore;
  const Dim M = 131, N = 517, K = 263;  // hostile to 64/256 tiling
  Rng rng(41);
  const auto A = random_matrix(M, K, rng);
  const auto B = random_matrix(K, N, rng);
  const auto At = random_matrix(K, M, rng);
  const auto Bt = random_matrix(N, K, rng);
  const auto C0 = random_matrix(M, N, rng);

  auto run_all = [&] {
    std::vector<std::vector<float>> out;
    auto C = C0;
    gemm(M, N, K, 1.25f, A.data(), B.data(), 0.5f, C.data());
    out.push_back(C);
    C = C0;
    gemm_at(M, N, K, 1.25f, At.data(), B.data(), 0.5f, C.data());
    out.push_back(C);
    C = C0;
    gemm_bt(M, N, K, 1.25f, A.data(), Bt.data(), 0.5f, C.data());
    out.push_back(C);
    return out;
  };

  core::set_thread_count(1);
  const auto serial = run_all();
  for (int threads : {2, 4, 7}) {
    core::set_thread_count(threads);
    const auto threaded = run_all();
    for (std::size_t v = 0; v < serial.size(); ++v) {
      expect_bits_equal(serial[v], threaded[v]);
    }
  }
}

TEST(Determinism, ConvForwardBitIdenticalAcrossThreadCounts) {
  PoolSizeRestore restore;
  nn::Conv2D conv(3, 16, 3, 1, 1, true);
  Rng rng(43);
  conv.init(rng);
  Tensor in(Shape{6, 3, 17, 17});
  in.fill_uniform(rng, -1.0f, 1.0f);

  core::set_thread_count(1);
  const Tensor serial = conv.forward(in);
  core::set_thread_count(4);
  const Tensor threaded = conv.forward(in);
  ASSERT_TRUE(serial.same_shape(threaded));
  ASSERT_EQ(std::memcmp(serial.data(), threaded.data(),
                        static_cast<std::size_t>(serial.numel()) *
                            sizeof(float)),
            0);
}

TEST(Determinism, ConvBackwardBitIdenticalAcrossThreadCounts) {
  PoolSizeRestore restore;
  Rng rng(47);
  Tensor in(Shape{5, 3, 13, 13});
  in.fill_uniform(rng, -1.0f, 1.0f);
  Tensor grad_out(Shape{5, 8, 13, 13});
  grad_out.fill_uniform(rng, -1.0f, 1.0f);

  auto run_at = [&](int threads) {
    core::set_thread_count(threads);
    nn::Conv2D conv(3, 8, 3, 1, 1, true);
    Rng init_rng(49);
    conv.init(init_rng);
    (void)conv.forward(in);
    Tensor grad_in = conv.backward(grad_out);
    std::vector<float> bits(grad_in.data(),
                            grad_in.data() + grad_in.numel());
    for (nn::Param* p : conv.params()) {
      bits.insert(bits.end(), p->grad.data(),
                  p->grad.data() + p->grad.numel());
    }
    return bits;
  };

  const auto serial = run_at(1);
  const auto threaded = run_at(4);
  expect_bits_equal(serial, threaded);
}

struct CompiledFixture {
  bnn::CompiledBnn net;
  Tensor images{Shape{0}};

  CompiledFixture() {
    bnn::CnvConfig config;
    config.width = 0.125f;
    nn::Net graph = bnn::make_cnv_net(config);
    Rng rng(53);
    graph.init(rng);
    net = bnn::compile_bnn(graph);
    images = Tensor(Shape{6, 3, 32, 32});
    images.fill_uniform(rng, 0.0f, 1.0f);
  }
};

TEST(Determinism, BnnReferenceClassifyIdenticalAcrossThreadCounts) {
  PoolSizeRestore restore;
  CompiledFixture fx;
  core::set_thread_count(1);
  const auto serial = bnn::classify_reference(fx.net, fx.images);
  core::set_thread_count(4);
  const auto threaded = bnn::classify_reference(fx.net, fx.images);
  EXPECT_EQ(serial, threaded);
}

TEST(Determinism, Im2colAndCol2imBitIdenticalAcrossThreadCounts) {
  PoolSizeRestore restore;
  const ConvGeometry g{5, 11, 9, 3, 2, 1};
  Rng rng(59);
  std::vector<float> im(
      static_cast<std::size_t>(g.in_channels * g.in_h * g.in_w));
  for (float& v : im) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> col(
      static_cast<std::size_t>(g.patch_size() * g.positions()));

  core::set_thread_count(1);
  std::vector<float> col1(col.size());
  im2col(g, im.data(), col1.data());
  std::vector<float> im1(im.size(), 0.0f);
  col2im(g, col1.data(), im1.data());

  core::set_thread_count(4);
  std::vector<float> col4(col.size());
  im2col(g, im.data(), col4.data());
  std::vector<float> im4(im.size(), 0.0f);
  col2im(g, col4.data(), im4.data());

  expect_bits_equal(col1, col4);
  expect_bits_equal(im1, im4);
}

}  // namespace
}  // namespace mpcnn
