#include "finn/executor.hpp"

#include <algorithm>

#include "finn/explorer.hpp"
#include "tensor/error.hpp"

namespace mpcnn::finn {
namespace {

using bnn::CompiledStage;
using bnn::StageKind;

bool is_compute(const CompiledStage& stage) {
  return stage.kind != StageKind::kMaxPoolBinary;
}

// Converts a compiled stage to the layer-info geometry the engine model
// expects.
bnn::CnvLayerInfo info_of(const CompiledStage& stage, bool first) {
  bnn::CnvLayerInfo info;
  if (stage.kind == StageKind::kFixedPointConv ||
      stage.kind == StageKind::kBinaryConv) {
    info.kind = bnn::CnvLayerInfo::Kind::kConv;
    info.kernel = stage.kernel;
  } else {
    info.kind = bnn::CnvLayerInfo::Kind::kDense;
  }
  info.in_ch = stage.in_ch;
  info.in_h = stage.in_h;
  info.in_w = stage.in_w;
  info.out_ch = stage.out_ch;
  info.out_h = stage.out_h;
  info.out_w = stage.out_w;
  info.binarised_input = !first;
  info.has_threshold = stage.kind != StageKind::kOutputDense;
  info.accum_bits = first ? 24 : (info.has_threshold ? 16 : 0);
  info.label = first ? "first-conv" : "engine";
  return info;
}

}  // namespace

std::vector<Engine> engines_for_compiled(const bnn::CompiledBnn& net,
                                         std::int64_t target_cycles,
                                         Dim max_simd) {
  std::vector<Engine> engines;
  bool first = true;
  for (const CompiledStage& stage : net.stages) {
    if (!is_compute(stage)) continue;
    const bnn::CnvLayerInfo info = info_of(stage, first);
    first = false;
    engines.push_back(
        Engine{info, balance_layer(info, target_cycles, max_simd)});
  }
  return engines;
}

FoldedExecutor::FoldedExecutor(const bnn::CompiledBnn& net,
                               const std::vector<Engine>& engines) {
  MPCNN_CHECK(net.fully_binary(),
              "FoldedExecutor models single-bit engines; partially-"
              "binarised networks have no folded cycle model");
  std::size_t e = 0;
  for (const CompiledStage& stage : net.stages) {
    if (!is_compute(stage)) continue;
    MPCNN_CHECK(e < engines.size(), "fewer engines than compute stages");
    const Engine& engine = engines[e];
    MPCNN_CHECK(engine.folding_valid(), "invalid folding for stage " << e);
    MPCNN_CHECK(engine.layer.weight_rows() == stage.out_ch &&
                    engine.layer.weight_cols() == stage.weights.cols(),
                "engine " << e << " geometry does not match compiled stage");
    // Tile walk: every cycle each of the P PEs consumes S columns of its
    // current output-channel row, once per output position.
    const bool is_conv = stage.kind == StageKind::kFixedPointConv ||
                         stage.kind == StageKind::kBinaryConv;
    const Dim positions = is_conv ? stage.out_h * stage.out_w : 1;
    const std::int64_t cycles = positions *
                                (stage.out_ch / engine.folding.pe) *
                                (stage.weights.cols() / engine.folding.simd);
    trace_.engine_cycles.push_back(cycles);
    trace_.total_cycles += cycles;
    trace_.bottleneck_cycles = std::max(trace_.bottleneck_cycles, cycles);
    ++e;
  }
  MPCNN_CHECK(e == engines.size(), "more engines than compute stages");
}

}  // namespace mpcnn::finn
