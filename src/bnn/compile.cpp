#include "bnn/compile.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "bnn/binary_layers.hpp"
#include "bnn/kernels.hpp"
#include "bnn/kernels_impl.hpp"
#include "core/integrity/integrity.hpp"
#include "core/threadpool.hpp"
#include "nn/batchnorm.hpp"
#include "nn/flatten.hpp"
#include "nn/pool.hpp"
#include "nn/scale.hpp"

namespace mpcnn::bnn {
namespace {

// Derives the (threshold, negate) pair for one channel and one level
// boundary from batch-norm parameters: activation level q ≥ k holds iff
// BN(a) ≥ v_target.  `scale` maps accumulator units to the float domain
// the batch-norm was trained in (in_levels−1 for quantised inputs, the
// 8-bit level count for the fixed-point first stage).
std::pair<std::int32_t, bool> fold_threshold(float gamma, float beta,
                                             float mean, float var,
                                             float epsilon, double scale,
                                             double v_target) {
  const double sigma = std::sqrt(static_cast<double>(var) + epsilon);
  if (gamma == 0.0f) {
    // Constant output: BN(a) = beta for every accumulator value.
    return beta >= v_target
               ? std::make_pair(std::numeric_limits<std::int32_t>::min(),
                                false)
               : std::make_pair(std::numeric_limits<std::int32_t>::max(),
                                false);
  }
  const double tau =
      (static_cast<double>(mean) +
       (v_target - static_cast<double>(beta)) * sigma /
           static_cast<double>(gamma)) *
      scale;
  if (gamma > 0.0f) {
    // fired ⇔ acc ≥ ceil(tau)
    return {static_cast<std::int32_t>(std::ceil(tau)), false};
  }
  // fired ⇔ acc ≤ tau ⇔ !(acc ≥ floor(tau)+1)
  return {static_cast<std::int32_t>(std::floor(tau)) + 1, true};
}

// Packs a float ±1 weight matrix (out_ch x cols, logical column order)
// into the stage's bits, each column at its stored_column.
void pack_weights(CompiledStage& stage, const Tensor& shadow, Dim cols) {
  MPCNN_CHECK(shadow.shape() == Shape({stage.out_ch, cols}),
              "weight shape mismatch while packing");
  stage.weights = BitMatrix(stage.out_ch, cols);
  for (Dim r = 0; r < stage.out_ch; ++r) {
    for (Dim c = 0; c < cols; ++c) {
      stage.weights.set(r, stored_column(stage, c),
                        sign_bit(shadow[r * cols + c]));
    }
  }
}

// Level boundary v_k in the batch-norm output domain: level q ≥ k iff
// BN(a) ≥ v_k, with v_k the rounding midpoint of the uniform quantiser
// on [−1, 1].  For L = 2 this is the single boundary v_1 = 0 (sign).
double level_boundary(int k, int levels) {
  return (2.0 * k - 1.0) / static_cast<double>(levels - 1) - 1.0;
}

void fill_thresholds(CompiledStage& stage, nn::BatchNorm& bn, double scale) {
  const int boundaries = stage.out_levels - 1;
  stage.thresholds.resize(
      static_cast<std::size_t>(stage.out_ch * boundaries));
  stage.negate.resize(static_cast<std::size_t>(stage.out_ch));
  for (Dim c = 0; c < stage.out_ch; ++c) {
    bool channel_negate = false;
    for (int k = 1; k <= boundaries; ++k) {
      const auto [t, neg] = fold_threshold(
          bn.gamma().value[c], bn.beta().value[c], bn.running_mean()[c],
          bn.running_var()[c], bn.epsilon(), scale,
          level_boundary(k, stage.out_levels));
      stage.thresholds[static_cast<std::size_t>(c * boundaries + k - 1)] =
          t;
      channel_negate = neg;  // identical for every level of a channel
    }
    stage.negate[static_cast<std::size_t>(c)] = channel_negate ? 1 : 0;
  }
}

// Matches either activation flavour after a batch-norm; returns the
// output level count (2 for BinActive, 2^bits for QuantActive) or 0.
int activation_levels(nn::Layer* layer) {
  if (dynamic_cast<BinActive*>(layer) != nullptr) return 2;
  if (auto* quant = dynamic_cast<QuantActive*>(layer)) {
    return quant->levels();
  }
  return 0;
}

}  // namespace

CompiledBnn compile_bnn(nn::Net& net) {
  CompiledBnn out;
  const auto& layers = net.layers();
  MPCNN_CHECK(!layers.empty(), "compile of empty net");
  std::size_t i = 0;

  auto* quant = dynamic_cast<QuantizeInput*>(layers[i].get());
  MPCNN_CHECK(quant != nullptr, "net must start with QuantizeInput");
  out.input_levels = quant->levels();
  ++i;

  Shape shape = net.input_shape();
  bool first_conv = true;
  // Level count of the current inter-stage encoding; the first conv sees
  // the 8-bit pixels.
  int carried_levels = out.input_levels + 1;
  while (i < layers.size()) {
    nn::Layer* layer = layers[i].get();
    if (auto* conv = dynamic_cast<BinConv2D*>(layer)) {
      MPCNN_CHECK(i + 2 < layers.size(), "conv without BN+activation");
      auto* bn = dynamic_cast<nn::BatchNorm*>(layers[i + 1].get());
      const int levels = activation_levels(layers[i + 2].get());
      MPCNN_CHECK(bn && levels > 0,
                  "conv must be followed by BatchNorm + activation");
      CompiledStage stage;
      stage.kind = first_conv ? StageKind::kFixedPointConv
                              : StageKind::kBinaryConv;
      stage.in_ch = shape[1];
      stage.in_h = shape[2];
      stage.in_w = shape[3];
      stage.kernel = conv->kernel();
      stage.out_ch = conv->out_channels();
      stage.out_h = stage.in_h - stage.kernel + 1;
      stage.out_w = stage.in_w - stage.kernel + 1;
      stage.in_levels = carried_levels;
      stage.out_levels = levels;
      pack_weights(stage, conv->weight().value,
                   stage.in_ch * stage.kernel * stage.kernel);
      // First stage: float input was k/levels (unsigned); inner stages:
      // the value of level q is (2q − (L−1))/(L−1), so the integer
      // accumulator is (L−1)× the float one.
      const double scale =
          first_conv ? static_cast<double>(out.input_levels)
                     : static_cast<double>(carried_levels - 1);
      fill_thresholds(stage, *bn, scale);
      carried_levels = stage.out_levels;
      out.stages.push_back(std::move(stage));
      shape = Shape{1, conv->out_channels(),
                    out.stages.back().out_h, out.stages.back().out_w};
      first_conv = false;
      i += 3;
      continue;
    }
    if (auto* pool = dynamic_cast<nn::Pool2D*>(layer)) {
      MPCNN_CHECK(pool->mode() == nn::PoolMode::kMax && pool->kernel() == 2 &&
                      pool->stride() == 2,
                  "only 2x2/s2 max pooling is FINN-lowerable");
      CompiledStage stage;
      stage.kind = StageKind::kMaxPoolBinary;
      stage.in_ch = shape[1];
      stage.in_h = shape[2];
      stage.in_w = shape[3];
      stage.kernel = 2;
      stage.out_ch = stage.in_ch;
      stage.out_h = stage.in_h / 2;
      stage.out_w = stage.in_w / 2;
      stage.in_levels = carried_levels;
      stage.out_levels = carried_levels;
      out.stages.push_back(std::move(stage));
      shape = Shape{1, out.stages.back().out_ch, out.stages.back().out_h,
                    out.stages.back().out_w};
      ++i;
      continue;
    }
    if (dynamic_cast<nn::Flatten*>(layer) != nullptr) {
      shape = Shape{1, shape.numel()};
      ++i;
      continue;
    }
    if (auto* dense = dynamic_cast<BinDense*>(layer)) {
      const Dim in_features = shape.numel();
      MPCNN_CHECK(in_features == dense->in_features(),
                  "dense input mismatch while compiling");
      CompiledStage stage;
      stage.in_ch = in_features;
      stage.in_h = stage.in_w = 1;
      stage.out_ch = dense->out_features();
      stage.out_h = stage.out_w = 1;
      stage.kernel = 0;
      stage.in_levels = carried_levels;
      // Trailing Scale layers are positive monotone maps of the logits
      // and vanish in the integer lowering.
      std::size_t after = i + 1;
      while (after < layers.size() &&
             dynamic_cast<nn::Scale*>(layers[after].get()) != nullptr) {
        ++after;
      }
      const bool is_last = (after == layers.size());
      stage.kind = is_last ? StageKind::kOutputDense : StageKind::kBinaryDense;
      pack_weights(stage, dense->weight().value, in_features);
      if (is_last) {
        stage.out_levels = 2;  // unused; scores are raw integers
        out.classes = stage.out_ch;
        out.stages.push_back(std::move(stage));
        i = after;
        continue;
      }
      MPCNN_CHECK(i + 2 < layers.size(), "hidden dense without BN+act");
      auto* bn = dynamic_cast<nn::BatchNorm*>(layers[i + 1].get());
      const int levels = activation_levels(layers[i + 2].get());
      MPCNN_CHECK(bn && levels > 0,
                  "hidden dense must have BatchNorm + activation");
      stage.out_levels = levels;
      fill_thresholds(stage, *bn,
                      static_cast<double>(carried_levels - 1));
      carried_levels = stage.out_levels;
      out.stages.push_back(std::move(stage));
      shape = Shape{1, dense->out_features()};
      i += 3;
      continue;
    }
    MPCNN_CHECK(false, "unsupported layer in BNN graph: " << layer->name());
  }
  MPCNN_CHECK(out.classes > 0, "net has no output dense layer");
  return out;
}

namespace {

// ------------------- packed word-parallel engine ----------------------
//
// The generic oracle further down sums every accumulator one element at
// a time; for fully-binary nets this engine works on whole words of
// channels-last bit maps (bitpack.hpp).  A pixel's channel bits are one
// contiguous field and conv weight rows store taps in the matching
// (kh, kw, c) order (tap_column), so a patch row is K runs of K·C map
// bits.  Each stage makes one dispatched kernel call (kernels.hpp) that
// reads its patch rows straight from the stage's input — no patch
// matrix is written — and computes every output channel of a position
// as one C-bit pixel field:
//
//   1. the first stage multiplies the patch bytes of the channels-last
//      quantised pixels by ±1 weight bytes and sums them;
//   2. binary convs run the all-channel XNOR-popcount kernel over the
//      input map with the threshold compare fused in;
//   3. 2×2 max-pool ORs the four pixel fields of each window;
//   4. dense stages read their input as one pixel in the CHW order their
//      weights keep: the 1×1 map itself, or a gathered copy.
//
// Several positions share an output word, so one image runs serially;
// callers fan out over images.  All arithmetic is integer, so scores are
// bit-identical to the oracle at every ISA level and thread count.

bool fire_binary(const CompiledStage& s, Dim oc, std::int64_t acc) {
  return (acc >= s.threshold(oc, 0)) !=
         (s.negate[static_cast<std::size_t>(oc)] != 0);
}

// Channels-last bit map: pixel (y, x) holds its `ch` channel bits at bit
// (y·w + x)·ch + c, and the spare word past the last pixel keeps the
// field helpers' whole-word reads and writes in bounds.
struct ChannelsLastMap {
  Dim ch = 0, h = 0, w = 0;
  std::vector<std::uint64_t> words;

  ChannelsLastMap(Dim ch_, Dim h_, Dim w_)
      : ch(ch_), h(h_), w(w_),
        words(static_cast<std::size_t>((ch_ * h_ * w_ + 63) / 64 + 1), 0) {}

  bool get(Dim bit) const {
    return (words[static_cast<std::size_t>(bit >> 6)] >> (bit & 63)) & 1ULL;
  }
  void set(Dim bit) {
    words[static_cast<std::size_t>(bit >> 6)] |= 1ULL << (bit & 63);
  }
};

// A loaded artifact is CRC-checked but not cross-checked, so every stage
// checks the geometry it indexes with against its input before touching
// memory.
void check_stage(const CompiledStage& s, Dim in_ch, Dim in_h, Dim in_w) {
  bool ok = true;
  switch (s.kind) {
    case StageKind::kFixedPointConv:
    case StageKind::kBinaryConv:
      ok = in_ch == s.in_ch && in_h == s.in_h && in_w == s.in_w &&
           s.kernel >= 1 && s.kernel <= in_h && s.kernel <= in_w &&
           s.out_h == in_h - s.kernel + 1 &&
           s.out_w == in_w - s.kernel + 1 &&
           s.weights.cols() == in_ch * s.kernel * s.kernel;
      break;
    case StageKind::kMaxPoolBinary:
      ok = in_ch == s.in_ch && s.out_ch == in_ch && s.out_h == in_h / 2 &&
           s.out_w == in_w / 2;
      break;
    case StageKind::kBinaryDense:
    case StageKind::kOutputDense:
      ok = s.in_ch == in_ch * in_h * in_w && s.weights.cols() == s.in_ch;
      break;
  }
  if (s.kind != StageKind::kMaxPoolBinary) {
    ok = ok && s.weights.rows() == s.out_ch;
  }
  if (s.kind != StageKind::kMaxPoolBinary &&
      s.kind != StageKind::kOutputDense) {
    ok = ok && s.thresholds.size() == static_cast<std::size_t>(s.out_ch) &&
         s.negate.size() == static_cast<std::size_t>(s.out_ch);
  }
  MPCNN_CHECK(ok, "compiled stage does not fit its " << in_ch << "x" << in_h
                                                     << "x" << in_w
                                                     << " input");
}

// Patch rows of a stride-1 K×K conv over `in`; a dense stage reads a 1×1
// map with K = 1, its single row being the whole map.
detail::PatchSource patch_rows(const ChannelsLastMap& in, Dim kernel) {
  const Dim out_w = in.w - kernel + 1;
  return {in.words.data(), in.ch, in.w, kernel, out_w,
          (in.h - kernel + 1) * out_w};
}

// Per-call operands of a thresholded stage for the stage kernels
// (kernels.hpp): weight words in the per-run layout, transposed to
// (word, channel) order with the channel axis padded to the 4 lanes of a
// 256-bit vector, one bound per channel, and the negate flags one bit
// per channel.  They are rebuilt from CompiledStage on every call, never
// cached, so SEU flips and scrub repairs reach the engine exactly as
// they reach the weights.
struct StageOperands {
  Dim cstride;
  std::vector<std::uint64_t> w;
  std::vector<std::int64_t> bound;
  std::vector<std::uint64_t> flip;

  StageOperands(const CompiledStage& s, Dim words)
      : cstride((s.out_ch + 3) / 4 * 4),
        w(static_cast<std::size_t>(words * cstride), 0),
        bound(static_cast<std::size_t>(cstride), 0),
        flip(static_cast<std::size_t>((s.out_ch + 63) / 64), 0) {
    for (Dim oc = 0; oc < s.out_ch; ++oc) {
      if (s.negate[static_cast<std::size_t>(oc)] != 0) {
        flip[static_cast<std::size_t>(oc >> 6)] |= 1ULL << (oc & 63);
      }
    }
  }
};

// xnor_conv operands for patch rows of `kernel` runs.  Before negation
// a channel fires when acc = cols − 2m ≥ τ, i.e. when
// m < ⌊(cols − τ)/2⌋ + 1.  τ may be INT32_MIN or INT32_MAX (γ = 0
// folding), so the bound is clamped to the reachable [0, cols + 1].
StageOperands xnor_operands(const CompiledStage& s, Dim kernel) {
  const Dim cols = s.weights.cols();
  StageOperands op(s, kernel * ((cols / kernel + 63) / 64));
  transpose_runs(s.weights, kernel, op.cstride, op.w.data());
  for (Dim oc = 0; oc < s.out_ch; ++oc) {
    op.bound[static_cast<std::size_t>(oc)] = std::clamp<std::int64_t>(
        ((cols - s.threshold(oc, 0)) >> 1) + 1, 0, cols + 1);
  }
  return op;
}

// byte_conv operands: word kh·wpj + j of a channel holds the weights of
// bytes [8j, 8j + 8) of run kh, each a signed byte, +1 when the weight
// bit is set and −1 otherwise (−1 past the run, where the pixels are
// zero).  Before negation a channel fires when acc = Σ x·w > τ − 1.  The
// bound is clamped to the reachable [−255·cols − 1, 255·cols], which the
// caller keeps inside int32.
StageOperands byte_operands(const CompiledStage& s) {
  static constexpr std::array<std::uint64_t, 256> kSignLut = [] {
    std::array<std::uint64_t, 256> t{};
    for (int v = 0; v < 256; ++v) {
      std::uint64_t bytes = 0;
      for (int k = 0; k < 8; ++k) {
        bytes |= std::uint64_t{(v >> k) & 1 ? 0x01u : 0xFFu} << (8 * k);
      }
      t[static_cast<std::size_t>(v)] = bytes;
    }
    return t;
  }();
  const Dim run = s.kernel * s.in_ch;  // weight columns of one kernel row
  const Dim reach = 255 * s.weights.cols();
  StageOperands op(s, s.kernel * ((run + 7) / 8));
  for (Dim oc = 0; oc < s.out_ch; ++oc) {
    const std::uint64_t* row = s.weights.row_data(oc);
    std::uint64_t* dst = op.w.data() + oc;
    for (Dim kh = 0; kh < s.kernel; ++kh) {
      for (Dim b = 0; b < run; b += 8, dst += op.cstride) {
        *dst = kSignLut[detail::row_bits(row, kh * run + b,
                                         std::min<Dim>(8, run - b))];
      }
    }
    op.bound[static_cast<std::size_t>(oc)] = std::clamp<std::int64_t>(
        std::int64_t{s.threshold(oc, 0)} - 1, -reach - 1, reach);
  }
  return op;
}

// Quantises an NCHW image (NaN already rejected) to levels 0..`levels`
// in channels-last order, into px[0, C·H·W).  For a float v ≥ 0,
// ⌊double(v) + 0.5⌋ equals the oracle's std::lround(v) — the float sum
// v + 0.5f does not (0.49999997f would round up) — and truncation is
// that floor.
template <typename T>
void quantise_channels_last(const Tensor& image, int levels, T* px) {
  const Dim ch = image.shape()[1];
  const Dim hw = image.shape()[2] * image.shape()[3];
  const float scale = static_cast<float>(levels);
  const float* src = image.data();
  for (Dim c = 0; c < ch; ++c) {
    for (Dim i = 0; i < hw; ++i) {
      const float v = std::clamp(src[c * hw + i], 0.0f, 1.0f) * scale;
      px[i * ch + c] = static_cast<T>(
          static_cast<std::int32_t>(static_cast<double>(v) + 0.5));
    }
  }
}

ChannelsLastMap exec_fixed_point_conv(const CompiledStage& s,
                                      const Tensor& image,
                                      int input_levels) {
  check_stage(s, image.shape()[1], image.shape()[2], image.shape()[3]);
  ChannelsLastMap out(s.out_ch, s.out_h, s.out_w);
  // The byte kernels sum in 32-bit lanes: |acc| ≤ 255·cols must fit.
  if (input_levels <= 255 && s.weights.cols() < (Dim{1} << 23)) {
    // The kernel reads each patch row's runs of K·C₀ pixel bytes straight
    // from the quantised pixels, 8 bytes at a time; a spare word keeps
    // the reads near the last pixel in bounds.
    std::vector<std::uint64_t> px(
        static_cast<std::size_t>(image.numel() / 8 + 2), 0);
    quantise_channels_last(image, input_levels,
                           reinterpret_cast<std::uint8_t*>(px.data()));
    const detail::PatchSource src{px.data(), s.in_ch, s.in_w,
                                  s.kernel, s.out_w, s.out_h * s.out_w};
    const StageOperands op = byte_operands(s);
    detail::kernels().byte_conv(op.w.data(), op.cstride, op.bound.data(),
                                op.flip.data(), s.out_ch, src,
                                out.words.data());
    return out;
  }
  // Pixels wider than a byte (QuantizeInput allows 16 bits) or patches
  // too long for 32-bit sums: a portable integer loop over the same taps.
  std::vector<std::int32_t> px(static_cast<std::size_t>(image.numel()));
  quantise_channels_last(image, input_levels, px.data());
  for (Dim oh = 0; oh < s.out_h; ++oh) {
    for (Dim ow = 0; ow < s.out_w; ++ow) {
      for (Dim oc = 0; oc < s.out_ch; ++oc) {
        std::int64_t acc = 0;
        for (Dim kh = 0; kh < s.kernel; ++kh) {
          for (Dim kw = 0; kw < s.kernel; ++kw) {
            const std::int32_t* pixel =
                px.data() + ((oh + kh) * s.in_w + ow + kw) * s.in_ch;
            for (Dim c = 0; c < s.in_ch; ++c) {
              acc += s.weights.get(oc, tap_column(s, c, kh, kw)) ? pixel[c]
                                                                 : -pixel[c];
            }
          }
        }
        if (fire_binary(s, oc, acc)) {
          out.set((oh * s.out_w + ow) * s.out_ch + oc);
        }
      }
    }
  }
  return out;
}

// Pixel fields of checked accumulators: bit c of position p fires when
// (acc ≥ τ_c) differs from negate bit c, the compare fire_binary makes,
// over the whole int32 range, so a faulted accumulator thresholds as it
// would in any datapath.  `below` marks the channels under their
// threshold (τ > acc); XOR with the complemented negate bits (`keep`)
// turns that into fired bits.
void threshold_lanes(const CompiledStage& s, const XnorLanes& lanes,
                     Dim positions, ChannelsLastMap& out) {
  const Dim ch = s.out_ch;
  std::vector<std::int32_t> tau(static_cast<std::size_t>((ch + 3) / 4 * 4),
                                0);
  std::vector<std::uint64_t> keep(static_cast<std::size_t>((ch + 63) / 64),
                                  0);
  for (Dim oc = 0; oc < ch; ++oc) {
    tau[static_cast<std::size_t>(oc)] = s.threshold(oc, 0);
    if (s.negate[static_cast<std::size_t>(oc)] == 0) {
      keep[static_cast<std::size_t>(oc >> 6)] |= 1ULL << (oc & 63);
    }
  }
  for (Dim p = 0; p < positions; ++p) {
    const std::int32_t* acc = lanes.acc.get() + p * lanes.stride;
    for (Dim c0 = 0; c0 < ch; c0 += 64) {
      const Dim n = std::min<Dim>(64, ch - c0);
      const std::int32_t* a = acc + c0;
      const std::int32_t* t = tau.data() + c0;
      std::uint64_t below = 0;
      Dim c = 0;
#if defined(__SSE2__)
      // Lanes and thresholds are padded to 4, so whole groups stay in
      // bounds; the mask below drops the padding.  Sixteen lanes' masks
      // saturate-pack into bytes for one PMOVMSKB.
      auto gt = [&](Dim at) {
        return _mm_cmpgt_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + at)),
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + at)));
      };
      const Dim padded = (n + 3) / 4 * 4;
      for (; c + 16 <= padded; c += 16) {
        const __m128i bytes =
            _mm_packs_epi16(_mm_packs_epi32(gt(c), gt(c + 4)),
                            _mm_packs_epi32(gt(c + 8), gt(c + 12)));
        below |= static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(_mm_movemask_epi8(bytes)))
                 << c;
      }
      for (; c < padded; c += 4) {
        below |= static_cast<std::uint64_t>(
                     _mm_movemask_ps(_mm_castsi128_ps(gt(c))))
                 << c;
      }
#endif
      for (; c < n; ++c) below |= std::uint64_t{t[c] > a[c]} << c;
      if (n < 64) below &= (std::uint64_t{1} << n) - 1;
      detail::or_field(out.words.data(), p * ch + c0,
                       below ^ keep[static_cast<std::size_t>(c0 >> 6)]);
    }
  }
}

// Thresholds every patch row of `src` against every output channel; row
// p's pixel lands at bit p·out_ch of `out`.  The plain path is one
// all-channel kernel call with the compare fused in.  When
// core/integrity guards the call (a checking scope or armed faults on
// this thread), the same lane loop writes accumulators instead, plus
// checksum lanes when the call is verified, so the faults strike and
// the check sees them (checked_xnor) before the threshold pass.  The
// guard is opened once per stage: xnor_begin advances the call ordinal
// that armed faults and detections are keyed by.
void xnor_stage(const CompiledStage& s, const detail::PatchSource& src,
                ChannelsLastMap& out) {
  core::integrity::XnorGuard guard = core::integrity::xnor_begin();
  if (guard.active) {
    threshold_lanes(s, checked_xnor(s.weights, src, guard), src.rows, out);
    return;
  }
  const StageOperands op = xnor_operands(s, src.k);
  detail::kernels().xnor_conv(op.w.data(), op.cstride, op.bound.data(),
                              op.flip.data(), s.out_ch, src,
                              out.words.data());
}

ChannelsLastMap exec_binary_conv(const CompiledStage& s,
                                 const ChannelsLastMap& in) {
  check_stage(s, in.ch, in.h, in.w);
  ChannelsLastMap out(s.out_ch, s.out_h, s.out_w);
  xnor_stage(s, patch_rows(in, s.kernel), out);
  return out;
}

// Binary max is OR: each output pixel ORs the four fields of its 2×2
// window, up to 64 channels per word.
ChannelsLastMap exec_maxpool(const CompiledStage& s,
                             const ChannelsLastMap& in) {
  check_stage(s, in.ch, in.h, in.w);
  ChannelsLastMap out(s.out_ch, s.out_h, s.out_w);
  const Dim ch = in.ch;
  for (Dim oh = 0; oh < out.h; ++oh) {
    for (Dim ow = 0; ow < out.w; ++ow) {
      const Dim top = (2 * oh * in.w + 2 * ow) * ch;
      const Dim bottom = top + in.w * ch;
      const Dim dst = (oh * out.w + ow) * ch;
      for (Dim c0 = 0; c0 < ch; c0 += 64) {
        const Dim n = std::min<Dim>(64, ch - c0);
        const std::uint64_t* src = in.words.data();
        detail::or_field(out.words.data(), dst + c0,
                         detail::read_field(src, top + c0, n) |
                             detail::read_field(src, top + ch + c0, n) |
                             detail::read_field(src, bottom + c0, n) |
                             detail::read_field(src, bottom + ch + c0, n));
      }
    }
  }
  return out;
}

// Dense weights keep the CHW flatten order of the float graph, so a
// dense stage reads its input as one pixel in that order: the map itself
// when it is 1×1, which is every dense input of CNV, else a gathered
// copy.
ChannelsLastMap flatten_chw(ChannelsLastMap in) {
  const Dim hw = in.h * in.w;
  if (hw == 1) return in;
  ChannelsLastMap flat(in.ch * hw, 1, 1);
  for (Dim c = 0; c < in.ch; ++c) {
    for (Dim i = 0; i < hw; ++i) {
      if (in.get(i * in.ch + c)) flat.set(c * hw + i);
    }
  }
  return flat;
}

// Integer class scores cols − 2·mismatches of the one-pixel map `flat`;
// a guarded call takes them from the checked product's single position.
std::vector<std::int32_t> output_scores(const CompiledStage& s,
                                        const ChannelsLastMap& flat) {
  core::integrity::XnorGuard guard = core::integrity::xnor_begin();
  if (guard.active) {
    const XnorLanes lanes =
        checked_xnor(s.weights, patch_rows(flat, 1), guard);
    return std::vector<std::int32_t>(lanes.acc.get(),
                                     lanes.acc.get() + s.out_ch);
  }
  std::vector<std::int32_t> scores(static_cast<std::size_t>(s.out_ch));
  const detail::XorPopFn xor_pop = detail::kernels().xor_pop;
  for (Dim oc = 0; oc < s.out_ch; ++oc) {
    scores[static_cast<std::size_t>(oc)] = static_cast<std::int32_t>(
        s.weights.cols() - 2 * xor_pop(s.weights.row_data(oc),
                                       flat.words.data(),
                                       s.weights.words_per_row()));
  }
  return scores;
}

std::vector<std::int32_t> run_reference_packed(const CompiledBnn& net,
                                               const Tensor& image) {
  ChannelsLastMap fmap =
      exec_fixed_point_conv(net.stages.front(), image, net.input_levels);
  for (std::size_t s = 1; s < net.stages.size(); ++s) {
    const CompiledStage& stage = net.stages[s];
    switch (stage.kind) {
      case StageKind::kBinaryConv:
        fmap = exec_binary_conv(stage, fmap);
        break;
      case StageKind::kMaxPoolBinary:
        fmap = exec_maxpool(stage, fmap);
        break;
      case StageKind::kBinaryDense: {
        check_stage(stage, fmap.ch, fmap.h, fmap.w);
        const ChannelsLastMap flat = flatten_chw(std::move(fmap));
        ChannelsLastMap next(stage.out_ch, 1, 1);
        xnor_stage(stage, patch_rows(flat, 1), next);
        fmap = std::move(next);
        break;
      }
      case StageKind::kOutputDense:
        check_stage(stage, fmap.ch, fmap.h, fmap.w);
        return output_scores(stage, flatten_chw(std::move(fmap)));
      case StageKind::kFixedPointConv:
        MPCNN_CHECK(false, "fixed-point conv must be the first stage");
    }
  }
  MPCNN_CHECK(false, "compiled net has no output stage");
  return {};
}

// ------------- generic oracle: L-level activations, L ≥ 2 -------------
//
// The one reference interpreter: every accumulator is summed element by
// element from the integer encoding, with no packing, blocking or ISA
// dispatch.  It runs every partially-binarised net, and run_reference's
// kOracle runs fully-binary nets (L = 2) through it too, so the packed
// engine is checked against an independent datapath.

// Feature map of quantisation levels q ∈ {0, …, L−1}; the encoded
// bipolar value is x̃ = 2q − (L−1), so the next stage's accumulator is
// (L−1)× the float-domain one.
struct LevelFeatureMap {
  Dim ch = 0, h = 0, w = 0;
  int levels = 2;
  std::vector<std::int16_t> q;

  LevelFeatureMap(Dim ch_, Dim h_, Dim w_, int levels_)
      : ch(ch_), h(h_), w(w_), levels(levels_),
        q(static_cast<std::size_t>(ch_ * h_ * w_), 0) {}

  std::int16_t get(Dim c, Dim y, Dim x) const {
    return q[static_cast<std::size_t>((c * h + y) * w + x)];
  }
  void set(Dim c, Dim y, Dim x, std::int16_t v) {
    q[static_cast<std::size_t>((c * h + y) * w + x)] = v;
  }
  // Encoded bipolar value of one element.
  std::int64_t encoded(Dim c, Dim y, Dim x) const {
    return 2 * static_cast<std::int64_t>(get(c, y, x)) - (levels - 1);
  }
};

std::int16_t quantise_level(const CompiledStage& s, Dim oc,
                            std::int64_t acc) {
  const bool neg = s.negate[static_cast<std::size_t>(oc)] != 0;
  int q = 0;
  for (int k = 0; k < s.out_levels - 1; ++k) {
    if ((acc >= s.threshold(oc, k)) != neg) ++q;
  }
  return static_cast<std::int16_t>(q);
}

std::vector<std::int32_t> run_reference_generic(const CompiledBnn& net,
                                                const std::vector<int>& px) {
  const CompiledStage& first = net.stages.front();
  LevelFeatureMap fmap(first.out_ch, first.out_h, first.out_w,
                       first.out_levels);
  for (Dim oh = 0; oh < first.out_h; ++oh) {
    for (Dim ow = 0; ow < first.out_w; ++ow) {
      for (Dim oc = 0; oc < first.out_ch; ++oc) {
        std::int64_t acc = 0;
        for (Dim c = 0; c < first.in_ch; ++c) {
          for (Dim kh = 0; kh < first.kernel; ++kh) {
            for (Dim kw = 0; kw < first.kernel; ++kw) {
              const int x = px[static_cast<std::size_t>(
                  (c * first.in_h + oh + kh) * first.in_w + ow + kw)];
              acc += first.weights.get(oc, tap_column(first, c, kh, kw))
                         ? x
                         : -x;
            }
          }
        }
        fmap.set(oc, oh, ow, quantise_level(first, oc, acc));
      }
    }
  }

  for (std::size_t s = 1; s < net.stages.size(); ++s) {
    const CompiledStage& stage = net.stages[s];
    switch (stage.kind) {
      case StageKind::kBinaryConv: {
        LevelFeatureMap out(stage.out_ch, stage.out_h, stage.out_w,
                            stage.out_levels);
        for (Dim oh = 0; oh < stage.out_h; ++oh) {
          for (Dim ow = 0; ow < stage.out_w; ++ow) {
            for (Dim oc = 0; oc < stage.out_ch; ++oc) {
              std::int64_t acc = 0;
              for (Dim c = 0; c < stage.in_ch; ++c) {
                for (Dim kh = 0; kh < stage.kernel; ++kh) {
                  for (Dim kw = 0; kw < stage.kernel; ++kw) {
                    const std::int64_t x =
                        fmap.encoded(c, oh + kh, ow + kw);
                    acc += stage.weights.get(oc, tap_column(stage, c, kh, kw))
                               ? x
                               : -x;
                  }
                }
              }
              out.set(oc, oh, ow, quantise_level(stage, oc, acc));
            }
          }
        }
        fmap = std::move(out);
        break;
      }
      case StageKind::kMaxPoolBinary: {
        LevelFeatureMap out(stage.out_ch, stage.out_h, stage.out_w,
                            stage.out_levels);
        for (Dim c = 0; c < stage.out_ch; ++c) {
          for (Dim oh = 0; oh < stage.out_h; ++oh) {
            for (Dim ow = 0; ow < stage.out_w; ++ow) {
              const std::int16_t v = std::max(
                  std::max(fmap.get(c, 2 * oh, 2 * ow),
                           fmap.get(c, 2 * oh, 2 * ow + 1)),
                  std::max(fmap.get(c, 2 * oh + 1, 2 * ow),
                           fmap.get(c, 2 * oh + 1, 2 * ow + 1)));
              out.set(c, oh, ow, v);
            }
          }
        }
        fmap = std::move(out);
        break;
      }
      case StageKind::kBinaryDense: {
        MPCNN_CHECK(static_cast<Dim>(fmap.q.size()) == stage.in_ch,
                    "dense stage input width mismatch");
        LevelFeatureMap out(stage.out_ch, 1, 1, stage.out_levels);
        for (Dim oc = 0; oc < stage.out_ch; ++oc) {
          std::int64_t acc = 0;
          for (Dim c = 0; c < stage.in_ch; ++c) {
            const std::int64_t x =
                2 * static_cast<std::int64_t>(
                        fmap.q[static_cast<std::size_t>(c)]) -
                (fmap.levels - 1);
            acc += stage.weights.get(oc, c) ? x : -x;
          }
          out.set(oc, 0, 0, quantise_level(stage, oc, acc));
        }
        fmap = std::move(out);
        break;
      }
      case StageKind::kOutputDense: {
        MPCNN_CHECK(static_cast<Dim>(fmap.q.size()) == stage.in_ch,
                    "output stage input width mismatch");
        std::vector<std::int32_t> scores(
            static_cast<std::size_t>(stage.out_ch));
        // Scores scale with (L−1); fine for argmax and gate features.
        for (Dim oc = 0; oc < stage.out_ch; ++oc) {
          std::int64_t acc = 0;
          for (Dim c = 0; c < stage.in_ch; ++c) {
            const std::int64_t x =
                2 * static_cast<std::int64_t>(
                        fmap.q[static_cast<std::size_t>(c)]) -
                (fmap.levels - 1);
            acc += stage.weights.get(oc, c) ? x : -x;
          }
          scores[static_cast<std::size_t>(oc)] =
              static_cast<std::int32_t>(acc);
        }
        return scores;
      }
      case StageKind::kFixedPointConv:
        MPCNN_CHECK(false, "fixed-point conv must be the first stage");
    }
  }
  MPCNN_CHECK(false, "compiled net has no output stage");
  return {};
}

}  // namespace

std::vector<std::int32_t> run_reference(const CompiledBnn& net,
                                        const Tensor& image, BnnExec exec) {
  MPCNN_CHECK(image.shape().rank() == 4 && image.shape()[0] == 1,
              "run_reference expects one NCHW image");
  MPCNN_CHECK(!net.stages.empty(), "empty compiled net");
  const CompiledStage& first = net.stages.front();
  MPCNN_CHECK(first.kind == StageKind::kFixedPointConv,
              "compiled net must start with the fixed-point conv");
  MPCNN_CHECK(image.shape()[1] == first.in_ch &&
                  image.shape()[2] == first.in_h &&
                  image.shape()[3] == first.in_w,
              "image shape " << image.shape().str());
  MPCNN_CHECK(net.input_levels >= 1 && net.input_levels <= 65535,
              "input level count " << net.input_levels);
  // std::clamp saturates ±Inf to 1 and 0 but passes NaN through, and no
  // integer conversion of NaN is defined.  The scan is branch-free, so
  // it vectorises; only a rejected image looks for the first NaN.
  const float* px = image.data();
  const Dim numel = image.numel();
  int nan = 0;  // an int, not a bool: GCC vectorises this OR reduction
  for (Dim i = 0; i < numel; ++i) nan |= std::isnan(px[i]);
  if (nan != 0) {
    const Dim at = std::find_if(px, px + numel,
                                [](float v) { return std::isnan(v); }) -
                   px;
    MPCNN_CHECK(false, "pixel " << at << " is NaN");
  }
  const bool binary = net.fully_binary();
  MPCNN_CHECK(binary || exec != BnnExec::kPacked,
              "packed engine requires a fully binarised net");
  if (binary && exec != BnnExec::kOracle) {
    return run_reference_packed(net, image);
  }
  // The oracle quantises to integers 0..levels with std::lround, apart
  // from the packed engine's own rounding.
  std::vector<int> pixels(static_cast<std::size_t>(image.numel()));
  const float levels = static_cast<float>(net.input_levels);
  for (Dim i = 0; i < image.numel(); ++i) {
    pixels[static_cast<std::size_t>(i)] = static_cast<int>(
        std::lround(std::clamp(image[i], 0.0f, 1.0f) * levels));
  }
  return run_reference_generic(net, pixels);
}

std::vector<std::vector<std::int32_t>> run_reference_batch(
    const CompiledBnn& net, const Tensor& images, BnnExec exec) {
  MPCNN_CHECK(images.shape().rank() == 4,
              "run_reference_batch expects NCHW images");
  const Dim n = images.shape()[0];
  std::vector<std::vector<std::int32_t>> scores(static_cast<std::size_t>(n));
  // Per-image fan-out over the shared pool: run_reference only reads the
  // compiled net (integer arithmetic, so even the order is moot) and
  // each image writes its own scores slot.
  core::parallel_for(0, n, 1, [&](Dim i0, Dim i1) {
    for (Dim i = i0; i < i1; ++i) {
      scores[static_cast<std::size_t>(i)] =
          run_reference(net, images.slice_batch(i), exec);
    }
  });
  return scores;
}

std::vector<int> classify_reference(const CompiledBnn& net,
                                    const Tensor& images) {
  const std::vector<std::vector<std::int32_t>> scores =
      run_reference_batch(net, images);
  std::vector<int> labels(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    labels[i] = static_cast<int>(std::distance(
        scores[i].begin(),
        std::max_element(scores[i].begin(), scores[i].end())));
  }
  return labels;
}

float evaluate_reference(const CompiledBnn& net, const Tensor& images,
                         const std::vector<int>& labels) {
  const std::vector<int> pred = classify_reference(net, images);
  MPCNN_CHECK(pred.size() == labels.size(), "label count mismatch");
  Dim correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == labels[i]) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(pred.size());
}

}  // namespace mpcnn::bnn
