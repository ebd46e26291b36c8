// Lowering of a trained BNN graph into FINN engine parameters.
//
// Batch-norm + sign activations fold into per-channel integer thresholds
// (the XNOR-popcount-threshold datapath of FINN): for channel c with
// batch-norm parameters (γ, β, μ, σ),
//
//     sign(γ·(a−μ)/σ + β) = +1   ⇔   a ≥ τ   where τ = μ − β·σ/γ  (γ>0)
//                                ⇔   a ≤ τ                       (γ<0)
//
// so each channel stores an integer threshold plus a negate flag.  The
// first layer accumulates 8-bit fixed-point inputs (τ scales by the
// quantisation level count); every other layer is pure bipolar ±1.
#pragma once

#include <cstdint>
#include <vector>

#include "bnn/bitpack.hpp"
#include "nn/net.hpp"

namespace mpcnn::bnn {

enum class StageKind {
  kFixedPointConv,  ///< first layer: 8-bit inputs × binary weights
  kBinaryConv,      ///< XNOR-popcount conv engine
  kMaxPoolBinary,   ///< 2×2 boolean OR pooling
  kBinaryDense,     ///< XNOR-popcount FC engine with threshold
  kOutputDense,     ///< final FC producing integer class scores
};

/// One executable stage of the compiled network.
///
/// Activations may carry more than one bit (the §II partially-binarised
/// extension): a stage with `out_levels` L emits quantisation levels
/// q ∈ {0, …, L−1} (encoding the value 2q/(L−1) − 1) and stores L−1
/// ascending thresholds per output channel; the fully binarised case is
/// simply L = 2 with a single threshold.
struct CompiledStage {
  StageKind kind = StageKind::kBinaryConv;
  Dim in_ch = 0, in_h = 0, in_w = 0;
  Dim out_ch = 0, out_h = 0, out_w = 0;
  Dim kernel = 0;  ///< conv K or pool window (2)
  /// Binary weights: rows = out_ch, cols = patch size (K·K·in_ch for conv,
  /// in features for dense).  Bit 1 encodes weight +1.  Conv columns are
  /// stored in tap_column order; dense columns follow the CHW flatten.
  BitMatrix weights;
  /// Activation level count of this stage's output (2 = binary).
  int out_levels = 2;
  /// Level count of this stage's *input* encoding (256 for the 8-bit
  /// first stage, the previous activation's out_levels otherwise).
  int in_levels = 2;
  /// Per-output-channel activation thresholds in the accumulator domain,
  /// row-major: thresholds[c·(out_levels−1) + k] is the boundary between
  /// level k and k+1 of channel c.
  std::vector<std::int32_t> thresholds;
  /// Channels whose batch-norm scale was negative (comparison flips).
  std::vector<std::uint8_t> negate;

  Dim patch_size() const {
    return kind == StageKind::kMaxPoolBinary ? 0 : weights.cols();
  }
  std::int32_t threshold(Dim channel, int level_boundary) const {
    return thresholds[static_cast<std::size_t>(
        channel * (out_levels - 1) + level_boundary)];
  }
};

/// Stored weight column of the logical conv tap (c, kh, kw).  Conv
/// stages store taps channels-last, (kh·K + kw)·C + c — the order of a
/// patch row of a channels-last map (bitpack.hpp) — while the float
/// graph, MPBN files and SEU targeting use the logical order
/// (c·K + kh)·K + kw.  Every tap address goes through this function.
inline Dim tap_column(const CompiledStage& s, Dim c, Dim kh, Dim kw) {
  return (kh * s.kernel + kw) * s.in_ch + c;
}

/// Stored column of logical column `logical` of any parameterised stage:
/// a conv tap's (c·K + kh)·K + kw maps through tap_column; a dense
/// feature stays where it is.
inline Dim stored_column(const CompiledStage& s, Dim logical) {
  if (s.kind != StageKind::kFixedPointConv &&
      s.kind != StageKind::kBinaryConv) {
    return logical;
  }
  const Dim taps = s.kernel * s.kernel;
  return tap_column(s, logical / taps, logical % taps / s.kernel,
                    logical % s.kernel);
}

/// The full compiled network: pure integer arithmetic from here on.
struct CompiledBnn {
  std::vector<CompiledStage> stages;
  Dim classes = 0;
  int input_levels = 255;  ///< 8-bit input quantisation

  /// True when every activation is single-bit (the fast bit-packed
  /// execution path applies).
  bool fully_binary() const {
    for (const CompiledStage& stage : stages) {
      if (stage.kind != StageKind::kOutputDense && stage.out_levels != 2) {
        return false;
      }
    }
    return true;
  }
};

/// Lowers a trained make_cnv_net()-shaped graph.  Throws Error if the
/// graph does not match the expected Quantize/Conv/BN/Act/Pool/FC pattern.
CompiledBnn compile_bnn(nn::Net& net);

/// Which executor run_reference uses.
///
///  - kAuto:   the packed engine for every net in its domain, the oracle
///    for every other net.  The default.
///  - kPacked: the word-parallel engine over channels-last bit maps —
///    one dispatched kernel call per stage computes every output channel
///    of every position, a position's channels as one pixel field: byte
///    patches times ±1 weight bytes for the first stage, and the
///    all-channel XNOR-popcount lane kernel for every binary conv and
///    dense stage, with the threshold compare fused in, and for the
///    output stage's class scores.  One image runs serially.  Its domain
///    is a fully-binary net whose inputs are at most 8 bits
///    (input_levels ≤ 255) and whose first stage has under 2^23 patch
///    columns, so the byte kernels' 32-bit sums cannot wrap; it throws
///    on any other net.
///  - kOracle: the generic L-level interpreter, one accumulator per
///    (channel, position) summed element by element; the fully-binary
///    net is its L = 2 case.  The correctness reference for kPacked.
///
/// Both produce bit-identical class scores at any thread count.
enum class BnnExec { kAuto, kPacked, kOracle };

/// Bit-exact integer reference execution of one image (NCHW batch 1,
/// floats in [0,1]; ±Inf saturate to 1 and 0, NaN throws Error);
/// returns the `classes` output scores.
std::vector<std::int32_t> run_reference(const CompiledBnn& net,
                                        const Tensor& image,
                                        BnnExec exec = BnnExec::kAuto);

/// Scores for every image of an NCHW batch: per-image fan-out over the
/// shared pool (each image runs serially inside), one score vector per
/// image in batch order.
std::vector<std::vector<std::int32_t>> run_reference_batch(
    const CompiledBnn& net, const Tensor& images,
    BnnExec exec = BnnExec::kAuto);

/// Argmax labels for a batch of images.
std::vector<int> classify_reference(const CompiledBnn& net,
                                    const Tensor& images);

/// Top-1 accuracy of the compiled network.
float evaluate_reference(const CompiledBnn& net, const Tensor& images,
                         const std::vector<int>& labels);

}  // namespace mpcnn::bnn
