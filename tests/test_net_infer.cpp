// The const inference path (nn::Net::infer) against the training forward.
//
// The digests below were recorded from the eval-mode training forward
// before the inference path existed.  Net::infer (with its fused
// conv+ReLU epilogue, the 1x1 im2col shortcut and the in-place GEMM
// operand) and Net::forward must both reproduce them bit for bit, at
// every ISA level this machine runs and at 1 and 4 threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bnn/topology.hpp"
#include "core/threadpool.hpp"
#include "isa_override.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/model_zoo.hpp"
#include "nn/net.hpp"
#include "nn/pool.hpp"

namespace mpcnn {
namespace {

using isa_test::IsaOverride;
using isa_test::supported_levels;

struct PoolSizeRestore {
  int prior = core::thread_count();
  ~PoolSizeRestore() { core::set_thread_count(prior); }
};

// FNV-1a 64 over the raw bytes of the logits, so -0.0 and NaN payloads
// count.
void fnv_bytes(std::uint64_t& h, const Tensor& t) {
  const auto* p = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < static_cast<std::size_t>(t.numel()) * 4; ++i) {
    h = (h ^ p[i]) * 0x100000001B3ULL;
  }
}

// Seeded init leaves every bias at zero and batch-norm at the identity;
// randomise both so the bias epilogue and the normalisation carry weight.
nn::Net seeded(nn::Net net, std::uint64_t seed) {
  Rng rng(seed);
  net.init(rng);
  for (nn::Param* p : net.params()) {
    if (p->name == "conv.bias" || p->name == "dense.bias" ||
        p->name == "bn.beta") {
      p->value.fill_uniform(rng, -0.5f, 0.5f);
    } else if (p->name == "bn.gamma") {
      p->value.fill_uniform(rng, 0.5f, 1.5f);
    }
  }
  for (auto& layer : net.layers()) {
    if (auto* bn = dynamic_cast<nn::BatchNorm*>(layer.get())) {
      bn->mutable_running_mean().fill_uniform(rng, -0.2f, 0.2f);
      bn->mutable_running_var().fill_uniform(rng, 0.5f, 1.5f);
    }
  }
  net.set_training(false);
  return net;
}

// A batch of `n` items shaped like the net's input, uniform in [-1, 1],
// with an exact 0, a -0.0 and a NaN pixel planted in every item.
Tensor hostile_batch(const nn::Net& net, Dim n, std::uint64_t seed) {
  std::vector<Dim> dims = net.input_shape().dims();
  dims[0] = n;
  Tensor x{Shape(dims)};
  Rng rng(seed);
  x.fill_uniform(rng, -1.0f, 1.0f);
  const Dim per = x.numel() / n;
  for (Dim b = 0; b < n; ++b) {
    float* item = x.data() + b * per;
    item[(3 * b) % per] = 0.0f;
    item[(per / 3 + 5 * b) % per] = -0.0f;
    item[(per / 2 + 7 * b) % per] = std::numeric_limits<float>::quiet_NaN();
  }
  return x;
}

struct InferCase {
  const char* name;
  std::function<nn::Net()> build;
  std::uint64_t digest;  // eval-mode forward logits, batch 1 then batch 5
};

nn::Net workbench_model(char which) {
  // The Workbench widths and dropout rates of the served host models.
  nn::ModelOptions o;
  o.seed = 11;
  switch (which) {
    case 'A':
      o.width = 0.375f;
      break;
    case 'B':
      o.width = 0.1875f;
      o.dropout = 0.3f;
      break;
    default:
      o.width = 0.1875f;
      o.dropout = 0.3f;
      o.input_dropout = 0.0f;
      break;
  }
  return seeded(nn::make_model(std::string(1, which), o),
                0xA0 + static_cast<std::uint64_t>(which));
}

nn::Net cnv_graph() {
  bnn::CnvConfig config;
  config.width = 0.25f;
  config.fc_width = 64;
  return seeded(bnn::make_cnv_net(config), 0xB0);
}

// Conv stacks chosen to hit every branch of the conv inference path.
nn::Net stack(const char* name, Shape item,
              const std::function<void(nn::Net&)>& layers,
              std::uint64_t seed) {
  nn::Net net(name, std::move(item));
  layers(net);
  return seeded(std::move(net), seed);
}

const std::vector<InferCase>& cases() {
  static const std::vector<InferCase> kCases = {
      {"model_a", [] { return workbench_model('A'); }, 0xA5E017981C45B527ULL},
      {"model_b", [] { return workbench_model('B'); }, 0xD4DDD5B3AAEDFD90ULL},
      {"model_c", [] { return workbench_model('C'); }, 0x879F67B993B94C64ULL},
      {"cnv_graph", cnv_graph, 0x3D103E31530FE07BULL},
      {"conv1x1_stride2",
       [] {
         return stack("conv1x1_stride2", Shape{1, 3, 7, 9}, [](nn::Net& n) {
           n.add<nn::Conv2D>(3, 5, 1, 2, 0);
           n.add<nn::ReLU>();
           n.add<nn::Conv2D>(5, 4, 1);  // the shortcut, unfused
         }, 1);
       },
       0x773ADF1290F03D26ULL},
      {"conv1x1_pad1",
       [] {
         return stack("conv1x1_pad1", Shape{1, 4, 5, 6}, [](nn::Net& n) {
           n.add<nn::Conv2D>(4, 6, 1, 1, 1);  // no shortcut: pad 1
           n.add<nn::ReLU>();
           n.add<nn::Conv2D>(6, 3, 1);  // the shortcut, fused
           n.add<nn::ReLU>();
         }, 2);
       },
       0x32939510674832DFULL},
      {"conv5x5_pad2_on_3x3",
       [] {
         return stack("conv5x5_pad2_on_3x3", Shape{1, 2, 3, 3},
                      [](nn::Net& n) {
                        n.add<nn::Conv2D>(2, 4, 5, 1, 2);
                        n.add<nn::ReLU>();
                      },
                      3);
       },
       0xEA39157D66FF16A5ULL},
      {"stride3_odd",
       [] {
         return stack("stride3_odd", Shape{1, 3, 11, 13}, [](nn::Net& n) {
           n.add<nn::Conv2D>(3, 5, 3, 3, 1);
           n.add<nn::ReLU>();
           n.add<nn::Conv2D>(5, 4, 3, 3, 2);
           n.add<nn::ReLU>();
         }, 4);
       },
       0x51A4096053EA8436ULL},
      {"bias_free",
       [] {
         return stack("bias_free", Shape{1, 3, 8, 8}, [](nn::Net& n) {
           n.add<nn::Conv2D>(3, 6, 3, 1, 1, false);
           n.add<nn::ReLU>();
           n.add<nn::Conv2D>(6, 4, 1, 1, 0, false);
         }, 5);
       },
       0x0D9B49A057241413ULL},
      {"conv_pool_relu",
       [] {
         return stack("conv_pool_relu", Shape{1, 3, 9, 9}, [](nn::Net& n) {
           n.add<nn::Conv2D>(3, 5, 3, 1, 1);
           n.add<nn::Pool2D>(nn::PoolMode::kMax, 3, 2);
           n.add<nn::ReLU>();
           n.add<nn::Conv2D>(5, 4, 3);
           n.add<nn::Pool2D>(nn::PoolMode::kAverage, 2, 2);
           n.add<nn::ReLU>();
         }, 6);
       },
       0x303FC1162FE2FCCDULL},
      {"relu_after_no_conv",
       [] {
         return stack("relu_after_no_conv", Shape{1, 3, 6, 6},
                      [](nn::Net& n) {
                        n.add<nn::ReLU>();
                        n.add<nn::Conv2D>(3, 4, 3, 1, 1);
                        n.add<nn::ReLU>();
                        n.add<nn::ReLU>();
                        n.add<nn::Flatten>();
                        n.add<nn::Dense>(144, 7);
                        n.add<nn::ReLU>();
                      },
                      7);
       },
       0xB8E5D3DDC7042561ULL},
  };
  return kCases;
}

enum class Path { kForward, kInfer };

Tensor run(nn::Net& net, const Tensor& x, Path path) {
  return path == Path::kInfer ? net.infer(x) : net.forward(x);
}

// Logits at batch 1 and batch 5, concatenated into one digest.
std::uint64_t digest(nn::Net& net, Path path, std::vector<Tensor>* out) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const Dim n : {Dim{1}, Dim{5}}) {
    Tensor logits = run(net, hostile_batch(net, n, 0xD1 + n), path);
    fnv_bytes(h, logits);
    if (out) out->push_back(std::move(logits));
  }
  return h;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

TEST(NetInfer, PinnedDigestsHoldAtEveryIsaAndThreadCount) {
  PoolSizeRestore restore;
  for (const InferCase& c : cases()) {
    nn::Net net = c.build();
    for (const std::string& level : supported_levels()) {
      IsaOverride isa(level);
      for (const int threads : {1, 4}) {
        core::set_thread_count(threads);
        std::vector<Tensor> fwd, inf;
        const std::uint64_t fwd_digest = digest(net, Path::kForward, &fwd);
        const std::uint64_t inf_digest = digest(net, Path::kInfer, &inf);
        EXPECT_EQ(fwd_digest, c.digest)
            << c.name << " forward isa=" << level << " threads=" << threads
            << " got 0x" << std::hex << fwd_digest;
        EXPECT_EQ(inf_digest, c.digest)
            << c.name << " infer isa=" << level << " threads=" << threads
            << " got 0x" << std::hex << inf_digest;
        ASSERT_EQ(fwd.size(), inf.size());
        for (std::size_t i = 0; i < fwd.size(); ++i) {
          EXPECT_TRUE(bit_equal(fwd[i], inf[i]))
              << c.name << " batch " << (i == 0 ? 1 : 5) << " isa=" << level
              << " threads=" << threads;
        }
      }
    }
  }
}

// infer() is const and touches no member: slotting it between a
// training forward and its backward changes no gradient bit, and leaves
// the dropout stream where the next training forward expects it.
TEST(NetInfer, InferBetweenForwardAndBackwardChangesNothing) {
  auto build = [] {
    nn::Net net("train_probe", Shape{1, 3, 8, 8});
    net.add<nn::Conv2D>(3, 6, 3, 1, 1);
    net.add<nn::ReLU>();
    net.add<nn::BatchNorm>(6);
    net.add<nn::Pool2D>(nn::PoolMode::kMax, 2, 2);
    net.add<nn::Dropout>(0.25f, 3);
    net.add<nn::Conv2D>(6, 4, 1);
    net.add<nn::ReLU>();
    net.add<nn::Flatten>();
    net.add<nn::Dense>(64, 5);
    nn::Net s = seeded(std::move(net), 9);
    s.set_training(true);
    return s;
  };
  nn::Net plain = build();
  nn::Net probed = build();
  const Tensor x = hostile_batch(plain, 3, 0xF1);
  Tensor grad(Shape{3, 5});
  Rng rng(4);
  grad.fill_uniform(rng, -1.0f, 1.0f);
  const Tensor other = hostile_batch(plain, 2, 0xF2);

  const Tensor out_plain = plain.forward(x);
  const Tensor gin_plain = plain.backward(grad);

  const Tensor out_probed = probed.forward(x);
  (void)static_cast<const nn::Net&>(probed).infer(other);
  const Tensor gin_probed = probed.backward(grad);

  EXPECT_TRUE(bit_equal(out_plain, out_probed));
  EXPECT_TRUE(bit_equal(gin_plain, gin_probed));
  const std::vector<nn::Param*> pa = plain.params();
  const std::vector<nn::Param*> pb = probed.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(bit_equal(pa[i]->grad, pb[i]->grad)) << pa[i]->name;
  }
  EXPECT_TRUE(bit_equal(plain.forward(x), probed.forward(x)));
}

// One const Net served from four threads at once.  Each thread holds a
// SerialGuard: the shared pool runs one top-level region at a time, so
// concurrent callers keep their kernels inline.
TEST(NetInfer, ConcurrentInferOnOneConstNetMatchesSerial) {
  const nn::Net net = workbench_model('C');
  const Tensor x = hostile_batch(net, 2, 0xC1);
  const Tensor want = net.infer(x);
  std::vector<Tensor> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      core::SerialGuard serial;
      for (int rep = 0; rep < 3; ++rep) got[t] = net.infer(x);
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_TRUE(bit_equal(got[t], want)) << "thread " << t;
  }
}

}  // namespace
}  // namespace mpcnn
