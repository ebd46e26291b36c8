#include "finn/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bnn/topology.hpp"

namespace mpcnn::finn {
namespace {

bnn::CompiledBnn compiled_cnv(std::uint64_t seed) {
  bnn::CnvConfig config;
  config.width = 0.125f;  // 8/16/32 channels
  nn::Net graph = bnn::make_cnv_net(config);
  Rng rng(seed);
  graph.init(rng);
  return bnn::compile_bnn(graph);
}

TEST(FoldedExecutor, TraceCyclesMatchEquations) {
  // The walked tile count must equal the Eq. (3)/(4) closed form at every
  // folding, from fully unrolled to fully folded — the performance model
  // is held to a count taken over the compiled stages' own geometry.
  const bnn::CompiledBnn net = compiled_cnv(19);
  for (std::int64_t target : {1, 5'000, 20'000, 500'000, 5'000'000}) {
    const auto engines = engines_for_compiled(net, target, 32);
    const ExecutionTrace trace = FoldedExecutor(net, engines).trace();
    ASSERT_EQ(trace.engine_cycles.size(), engines.size());
    std::int64_t total = 0;
    for (std::size_t e = 0; e < engines.size(); ++e) {
      EXPECT_EQ(trace.engine_cycles[e], engines[e].cycles_per_image())
          << "engine " << e << " target " << target;
      total += trace.engine_cycles[e];
    }
    EXPECT_EQ(trace.total_cycles, total);
    EXPECT_EQ(trace.bottleneck_cycles,
              *std::max_element(trace.engine_cycles.begin(),
                                trace.engine_cycles.end()));
  }
}

TEST(FoldedExecutor, RejectsMismatchedEngines) {
  const bnn::CompiledBnn net = compiled_cnv(29);
  auto engines = engines_for_compiled(net, 100'000, 32);
  engines.pop_back();
  EXPECT_THROW(FoldedExecutor(net, engines), Error);

  auto engines2 = engines_for_compiled(net, 100'000, 32);
  engines2[0].folding.pe = 3;  // 3 ∤ 8 output channels
  EXPECT_THROW(FoldedExecutor(net, engines2), Error);
}

TEST(EnginesForCompiled, OnePerComputeStage) {
  const bnn::CompiledBnn net = compiled_cnv(31);
  const auto engines = engines_for_compiled(net, 100'000, 32);
  // 6 convs + 3 dense = 9 engines; pools are not engines.
  EXPECT_EQ(engines.size(), 9u);
  EXPECT_FALSE(engines.front().layer.binarised_input);
  EXPECT_TRUE(engines[1].layer.binarised_input);
  EXPECT_FALSE(engines.back().layer.has_threshold);
}

}  // namespace
}  // namespace mpcnn::finn
