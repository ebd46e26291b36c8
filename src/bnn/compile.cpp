#include "bnn/compile.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "bnn/binary_layers.hpp"
#include "bnn/kernels.hpp"
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

// Packs a float ±1 weight matrix (rows x cols) into bits.
BitMatrix pack_weights(const Tensor& shadow, Dim rows, Dim cols) {
  MPCNN_CHECK(shadow.shape() == Shape({rows, cols}),
              "weight shape mismatch while packing");
  BitMatrix bits(rows, cols);
  for (Dim r = 0; r < rows; ++r) {
    for (Dim c = 0; c < cols; ++c) {
      bits.set(r, c, sign_bit(shadow[r * cols + c]));
    }
  }
  return bits;
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
      stage.weights =
          pack_weights(conv->weight().value, stage.out_ch,
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
      stage.weights =
          pack_weights(dense->weight().value, stage.out_ch, in_features);
      // Trailing Scale layers are positive monotone maps of the logits
      // and vanish in the integer lowering.
      std::size_t after = i + 1;
      while (after < layers.size() &&
             dynamic_cast<nn::Scale*>(layers[after].get()) != nullptr) {
        ++after;
      }
      const bool is_last = (after == layers.size());
      if (is_last) {
        stage.kind = StageKind::kOutputDense;
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
      stage.kind = StageKind::kBinaryDense;
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
// a time; for fully-binary nets this engine works on whole 64-bit words
// instead:
//
//   1. bit_im2col packs all conv patches of a layer into a word-aligned
//      BitMatrix with shifts and word splices,
//   2. a blocked XNOR-popcount GEMM dots packed weight rows against
//      packed patch rows with the per-channel threshold/negate compare
//      fused into the epilogue (output bits are accumulated into words
//      and stored 64 at a time),
//   3. the first fixed-point stage is evaluated over bit-planes of the
//      8-bit image:  acc = 2·Σ_k 2^k·popcount(w ∧ plane_k) − Σ patch,
//      replacing the per-pixel weights.get() test with word AND+popcount.
//
// Feature maps live in channel planes padded to word boundaries, so a
// parallel chunk of output channels owns a disjoint word range — results
// are bit-identical from 1 to N threads by construction.

bool fire_binary(const CompiledStage& s, Dim oc, std::int64_t acc) {
  return (acc >= s.threshold(oc, 0)) !=
         (s.negate[static_cast<std::size_t>(oc)] != 0);
}

// Packed activation map: channel c's out_h·out_w bits start at word
// c·plane_words (bit y·w + x within the plane).
struct PlanedBitMap {
  Dim ch = 0, h = 0, w = 0, plane_words = 0;
  std::vector<std::uint64_t> words;

  PlanedBitMap() = default;
  PlanedBitMap(Dim ch_, Dim h_, Dim w_)
      : ch(ch_), h(h_), w(w_), plane_words((h_ * w_ + 63) / 64),
        words(static_cast<std::size_t>(ch_ * plane_words), 0) {}

  const std::uint64_t* plane(Dim c) const {
    return words.data() + static_cast<std::size_t>(c * plane_words);
  }
  std::uint64_t* plane(Dim c) {
    return words.data() + static_cast<std::size_t>(c * plane_words);
  }
  bool get(Dim c, Dim y, Dim x) const {
    const Dim bit = y * w + x;
    return (plane(c)[bit >> 6] >> (bit & 63)) & 1ULL;
  }
};

// Threshold epilogue for one output channel: accumulates fired bits into
// a word and flushes every 64 positions (single writer per plane word).
struct BitPackEpilogue {
  std::uint64_t* dst;
  std::uint64_t accw = 0;

  void push(Dim pos, bool fire) {
    accw |= static_cast<std::uint64_t>(fire) << (pos & 63);
    if ((pos & 63) == 63) {
      dst[pos >> 6] = accw;
      accw = 0;
    }
  }
  void flush(Dim positions) {
    if (positions & 63) dst[positions >> 6] = accw;
  }
};

// Reads `count` (1..64) bits starting at `bit`; result in the low bits.
inline std::uint64_t take_bits(const std::uint64_t* words, Dim bit,
                               Dim count) {
  const std::size_t wi = static_cast<std::size_t>(bit >> 6);
  const Dim off = bit & 63;
  std::uint64_t v = words[wi] >> off;
  if (off + count > 64) v |= words[wi + 1] << (64 - off);
  return count >= 64 ? v : v & ((1ULL << count) - 1ULL);
}

// ORs the low `count` bits of v into a known-zero destination range.
inline void or_bits(std::uint64_t* words, Dim bit, std::uint64_t v,
                    Dim count) {
  const std::size_t wi = static_cast<std::size_t>(bit >> 6);
  const Dim off = bit & 63;
  words[wi] |= v << off;
  if (off + count > 64) words[wi + 1] |= v >> (64 - off);
}

// Byte-SAD first stage: patches as byte vectors, weights as 0x00/0xFF
// byte masks, Σ_{w=1} x via masked byte sums (PSADBW on SSE2, VPSADBW on
// AVX2 — whichever the dispatch table bound).  Pure integer arithmetic,
// so the accumulators are bit-identical to the plane path and the generic
// oracle; pixels must fit a byte (input_levels ≤ 256).
PlanedBitMap exec_fixed_point_conv_sad(const CompiledStage& s,
                                       const std::vector<int>& px,
                                       const detail::BnnKernels& kern) {
  const Dim positions = s.out_h * s.out_w;
  const Dim patch = s.in_ch * s.kernel * s.kernel;
  const Dim vecs = (patch + 15) / 16;
  const Dim stride = vecs * 16;

  // Narrow the integer image to bytes once (pixels fit: levels ≤ 256),
  // so the patch assembly below is pure byte copies instead of per-patch
  // int→byte narrowing.
  std::vector<std::uint8_t> img(px.size());
  for (std::size_t i = 0; i < px.size(); ++i) {
    img[i] = static_cast<std::uint8_t>(px[i]);
  }

  // Byte-level im2col (zero padding past `patch` contributes nothing to
  // either masked or unmasked sums).
  std::vector<std::uint8_t> patches(
      static_cast<std::size_t>(positions * stride), 0);
  core::parallel_for(0, positions, 16, [&](Dim p0, Dim p1) {
    for (Dim pos = p0; pos < p1; ++pos) {
      const Dim oh = pos / s.out_w;
      const Dim ow = pos % s.out_w;
      std::uint8_t* dst = patches.data() + pos * stride;
      for (Dim c = 0; c < s.in_ch; ++c) {
        for (Dim kh = 0; kh < s.kernel; ++kh, dst += s.kernel) {
          const std::uint8_t* row =
              img.data() + ((c * s.in_h + oh + kh) * s.in_w + ow);
          std::memcpy(dst, row, static_cast<std::size_t>(s.kernel));
        }
      }
    }
  });

  // Weight rows as byte masks in the same column order, expanded eight
  // bits at a time through a byte→mask-word LUT (bit k of weight byte v
  // becomes mask byte k).  Zero padding bits past `patch` expand to zero
  // mask bytes, so the masked sums need no correction.
  static constexpr std::array<std::uint64_t, 256> kMaskLut = [] {
    std::array<std::uint64_t, 256> t{};
    for (int v = 0; v < 256; ++v) {
      std::uint64_t m = 0;
      for (int k = 0; k < 8; ++k) {
        if ((v >> k) & 1) m |= std::uint64_t{0xFF} << (8 * k);
      }
      t[static_cast<std::size_t>(v)] = m;
    }
    return t;
  }();
  std::vector<std::uint8_t> wmask(
      static_cast<std::size_t>(s.out_ch * stride), 0);
  const Dim groups = (patch + 7) / 8;  // 8·groups ≤ stride (16-aligned)
  for (Dim oc = 0; oc < s.out_ch; ++oc) {
    std::uint8_t* row = wmask.data() + oc * stride;
    const std::uint64_t* wrow = s.weights.row_data(oc);
    for (Dim g = 0; g < groups; ++g) {
      const std::uint64_t m =
          kMaskLut[(wrow[g >> 3] >> ((g & 7) * 8)) & 0xFF];
      std::memcpy(row + g * 8, &m, 8);
    }
  }

  PlanedBitMap out(s.out_ch, s.out_h, s.out_w);
  core::parallel_for(0, positions, 64, [&](Dim p0, Dim p1) {
    std::vector<std::uint64_t> accw(static_cast<std::size_t>(s.out_ch), 0);
    for (Dim pos = p0; pos < p1; ++pos) {
      const std::uint8_t* pb = patches.data() + pos * stride;
      const std::int64_t sum = kern.byte_sum(pb, stride);
      Dim oc = 0;
      if (kern.masked_byte_sum4 != nullptr) {
        for (; oc + 4 <= s.out_ch; oc += 4) {
          std::int64_t s4[4];
          kern.masked_byte_sum4(pb, wmask.data() + oc * stride, stride,
                                stride, s4);
          for (Dim r = 0; r < 4; ++r) {
            accw[static_cast<std::size_t>(oc + r)] |=
                static_cast<std::uint64_t>(
                    fire_binary(s, oc + r, 2 * s4[r] - sum))
                << (pos & 63);
          }
        }
      }
      for (; oc < s.out_ch; ++oc) {
        const std::uint8_t* wb = wmask.data() + oc * stride;
        const std::int64_t s1 = kern.masked_byte_sum(pb, wb, stride);
        accw[static_cast<std::size_t>(oc)] |=
            static_cast<std::uint64_t>(fire_binary(s, oc, 2 * s1 - sum))
            << (pos & 63);
      }
      if ((pos & 63) == 63) {
        const Dim wi = pos >> 6;
        for (Dim oc = 0; oc < s.out_ch; ++oc) {
          out.plane(oc)[wi] = accw[static_cast<std::size_t>(oc)];
          accw[static_cast<std::size_t>(oc)] = 0;
        }
      }
    }
    if (p1 & 63) {  // grain 64: a ragged end only happens at `positions`
      const Dim wi = p1 >> 6;
      for (Dim oc = 0; oc < s.out_ch; ++oc) {
        out.plane(oc)[wi] = accw[static_cast<std::size_t>(oc)];
      }
    }
  });
  return out;
}

PlanedBitMap exec_fixed_point_conv_packed(const CompiledStage& s,
                                          const std::vector<int>& px,
                                          int input_levels) {
  const detail::BnnKernels& kern = detail::kernels();
  // The byte path needs the SAD kernels (absent at the scalar level,
  // where the bit-plane stage below is the dispatched variant).
  if (kern.masked_byte_sum != nullptr && input_levels <= 256) {
    return exec_fixed_point_conv_sad(s, px, kern);
  }
  const Dim positions = s.out_h * s.out_w;
  const Dim patch = s.in_ch * s.kernel * s.kernel;
  const Dim wpr = (patch + 63) / 64;
  const int planes = std::bit_width(static_cast<unsigned>(input_levels));

  // Slice the integer image into bit-planes (plane k of channel c holds
  // bit k of every pixel), then word-splice each bit-plane through the
  // same bit_im2col the binary convs use: plane_mats[k] row `pos` is bit
  // k of every patch pixel of output position pos, columns in
  // pack_weights order.
  const Dim in_plane_words = (s.in_h * s.in_w + 63) / 64;
  std::vector<std::uint64_t> in_planes(
      static_cast<std::size_t>(planes * s.in_ch * in_plane_words), 0);
  core::parallel_for(0, s.in_ch, 1, [&](Dim cc0, Dim cc1) {
    for (Dim c = cc0; c < cc1; ++c) {
      const int* chan = px.data() + c * s.in_h * s.in_w;
      for (Dim i = 0; i < s.in_h * s.in_w; ++i) {
        const std::uint32_t x = static_cast<std::uint32_t>(chan[i]);
        const Dim wi = i >> 6;
        const Dim sh = i & 63;
        for (int k = 0; k < planes; ++k) {
          in_planes[static_cast<std::size_t>(
              (k * s.in_ch + c) * in_plane_words + wi)] |=
              static_cast<std::uint64_t>((x >> k) & 1U) << sh;
        }
      }
    }
  });
  std::vector<BitMatrix> plane_mats;
  plane_mats.reserve(static_cast<std::size_t>(planes));
  for (int k = 0; k < planes; ++k) {
    plane_mats.push_back(bit_im2col(
        in_planes.data() +
            static_cast<std::size_t>(k * s.in_ch * in_plane_words),
        in_plane_words, s.in_ch, s.in_h, s.in_w, s.kernel));
  }
  // Contiguous copy of the weight rows so the hot loop streams one dense
  // buffer instead of recomputing row addresses per (oc, pos, plane).
  std::vector<std::uint64_t> wbuf(static_cast<std::size_t>(s.out_ch * wpr));
  for (Dim oc = 0; oc < s.out_ch; ++oc) {
    std::copy_n(s.weights.row_data(oc), wpr, wbuf.data() + oc * wpr);
  }
  std::vector<const std::uint64_t*> bases(static_cast<std::size_t>(planes));
  for (int k = 0; k < planes; ++k) {
    bases[static_cast<std::size_t>(k)] =
        plane_mats[static_cast<std::size_t>(k)].row_data(0);
  }

  // Position-outer accumulation: the patch's plane words are loaded once
  // per position and reused by every output channel; Σ patch falls out of
  // the same loads as Σ_k 2^k·popcount(plane_k row).  The parallel grain
  // of 64 positions puts chunk boundaries on output-word edges, so each
  // chunk owns a disjoint word range of every output plane (bit-identical
  // at any thread count).  acc = 2·Σ_{w=1} x − Σ x, exact vs the
  // oracle's Σ (w ? x : −x).
  PlanedBitMap out(s.out_ch, s.out_h, s.out_w);
  core::parallel_for(0, positions, 64, [&](Dim p0, Dim p1) {
    std::vector<std::uint64_t> accw(static_cast<std::size_t>(s.out_ch), 0);
    std::vector<std::uint64_t> pk(static_cast<std::size_t>(planes * wpr));
    for (Dim pos = p0; pos < p1; ++pos) {
      std::int32_t sum = 0;
      if (wpr == 1) {
        // First-layer patches (in_ch·K² bits) almost always fit one word:
        // a register-resident inner loop with no word indexing.
        for (int k = 0; k < planes; ++k) {
          const std::uint64_t v = bases[static_cast<std::size_t>(k)][pos];
          pk[static_cast<std::size_t>(k)] = v;
          sum += static_cast<std::int32_t>(std::popcount(v)) << k;
        }
        for (Dim oc = 0; oc < s.out_ch; ++oc) {
          const std::uint64_t w = wbuf[static_cast<std::size_t>(oc)];
          std::int64_t s1 = 0;
          for (int k = 0; k < planes; ++k) {
            s1 += static_cast<std::int64_t>(std::popcount(
                      w & pk[static_cast<std::size_t>(k)]))
                  << k;
          }
          accw[static_cast<std::size_t>(oc)] |=
              static_cast<std::uint64_t>(fire_binary(s, oc, 2 * s1 - sum))
              << (pos & 63);
        }
      } else {
        for (int k = 0; k < planes; ++k) {
          const std::uint64_t* prow =
              bases[static_cast<std::size_t>(k)] + pos * wpr;
          Dim cnt = 0;
          for (Dim t = 0; t < wpr; ++t) {
            pk[static_cast<std::size_t>(k * wpr + t)] = prow[t];
            cnt += std::popcount(prow[t]);
          }
          sum += static_cast<std::int32_t>(cnt) << k;
        }
        for (Dim oc = 0; oc < s.out_ch; ++oc) {
          const std::uint64_t* w = wbuf.data() + oc * wpr;
          std::int64_t s1 = 0;
          for (int k = 0; k < planes; ++k) {
            Dim cnt = 0;
            for (Dim t = 0; t < wpr; ++t) {
              cnt += std::popcount(
                  w[t] & pk[static_cast<std::size_t>(k * wpr + t)]);
            }
            s1 += static_cast<std::int64_t>(cnt) << k;
          }
          accw[static_cast<std::size_t>(oc)] |=
              static_cast<std::uint64_t>(fire_binary(s, oc, 2 * s1 - sum))
              << (pos & 63);
        }
      }
      if ((pos & 63) == 63) {
        const Dim wi = pos >> 6;
        for (Dim oc = 0; oc < s.out_ch; ++oc) {
          out.plane(oc)[wi] = accw[static_cast<std::size_t>(oc)];
          accw[static_cast<std::size_t>(oc)] = 0;
        }
      }
    }
    if (p1 & 63) {  // grain 64: a ragged end only happens at `positions`
      const Dim wi = p1 >> 6;
      for (Dim oc = 0; oc < s.out_ch; ++oc) {
        out.plane(oc)[wi] = accw[static_cast<std::size_t>(oc)];
      }
    }
  });
  return out;
}

PlanedBitMap exec_binary_conv_packed(const CompiledStage& s,
                                     const PlanedBitMap& in) {
  const BitMatrix patches = bit_im2col(in.words.data(), in.plane_words,
                                       s.in_ch, s.in_h, s.in_w, s.kernel);
  const Dim positions = s.out_h * s.out_w;
  const Dim cols = s.weights.cols();
  const Dim wpr = patches.words_per_row();
  PlanedBitMap out(s.out_ch, s.out_h, s.out_w);
  // Register blocking: the dispatched quad kernel counts four weight
  // rows per pass so they share every patch-row load (POPCNT or AVX2
  // nibble-LUT under the hood).  Grain 4 keeps parallel chunk boundaries
  // on block edges; per-channel results are independent, so blocking
  // cannot change any accumulator.
  const detail::BnnKernels& kern = detail::kernels();
  const Dim wstride = s.weights.words_per_row();
  core::parallel_for(0, s.out_ch, 4, [&](Dim c0, Dim c1) {
    Dim oc = c0;
    for (; oc + 4 <= c1; oc += 4) {
      const std::uint64_t* w0 = s.weights.row_data(oc);
      BitPackEpilogue ep0{out.plane(oc)};
      BitPackEpilogue ep1{out.plane(oc + 1)};
      BitPackEpilogue ep2{out.plane(oc + 2)};
      BitPackEpilogue ep3{out.plane(oc + 3)};
      for (Dim pos = 0; pos < positions; ++pos) {
        std::int64_t m[4];
        kern.xor_pop4(w0, wstride, patches.row_data(pos), wpr, m);
        ep0.push(pos, fire_binary(s, oc, cols - 2 * m[0]));
        ep1.push(pos, fire_binary(s, oc + 1, cols - 2 * m[1]));
        ep2.push(pos, fire_binary(s, oc + 2, cols - 2 * m[2]));
        ep3.push(pos, fire_binary(s, oc + 3, cols - 2 * m[3]));
      }
      ep0.flush(positions);
      ep1.flush(positions);
      ep2.flush(positions);
      ep3.flush(positions);
    }
    for (; oc < c1; ++oc) {
      const std::uint64_t* wrow = s.weights.row_data(oc);
      BitPackEpilogue ep{out.plane(oc)};
      for (Dim pos = 0; pos < positions; ++pos) {
        const std::int64_t acc =
            cols - 2 * kern.xor_pop(wrow, patches.row_data(pos), wpr);
        ep.push(pos, fire_binary(s, oc, acc));
      }
      ep.flush(positions);
    }
  });
  return out;
}

// ABFT-instrumented conv: materialise the whole accumulator matrix
// through the checked xnor_gemm — the integer accumulators are
// bit-identical to the fused quad path's (both compute cols − 2·
// mismatches per (channel, position)), so outputs never depend on which
// path ran; only the checked path exposes them to the checksum epilogue
// and to armed compute faults.  Taken only when core/integrity is
// active for this thread (see run_reference_packed).
PlanedBitMap exec_binary_conv_checked(const CompiledStage& s,
                                      const PlanedBitMap& in) {
  const BitMatrix patches = bit_im2col(in.words.data(), in.plane_words,
                                       s.in_ch, s.in_h, s.in_w, s.kernel);
  const Dim positions = s.out_h * s.out_w;
  std::vector<std::int32_t> acc(
      static_cast<std::size_t>(s.out_ch * positions));
  xnor_gemm(s.weights, patches, acc.data());
  PlanedBitMap out(s.out_ch, s.out_h, s.out_w);
  core::parallel_for(0, s.out_ch, 4, [&](Dim c0, Dim c1) {
    for (Dim oc = c0; oc < c1; ++oc) {
      const std::int32_t* arow = acc.data() + oc * positions;
      BitPackEpilogue ep{out.plane(oc)};
      for (Dim pos = 0; pos < positions; ++pos) {
        ep.push(pos, fire_binary(s, oc, arow[pos]));
      }
      ep.flush(positions);
    }
  });
  return out;
}

PlanedBitMap exec_maxpool_packed(const CompiledStage& s,
                                 const PlanedBitMap& in) {
  // Binary max is OR, so a whole 2×2 pooling row folds word-at-a-time:
  // OR the two source rows, OR adjacent column pairs, then compress the
  // surviving even bits with the Morton-decode SWAR ladder.  Chunks of
  // ≤32 output bits keep the 2× source read inside one take_bits call.
  PlanedBitMap out(s.out_ch, s.out_h, s.out_w);
  core::parallel_for(0, s.out_ch, 1, [&](Dim c0, Dim c1) {
    for (Dim c = c0; c < c1; ++c) {
      const std::uint64_t* src = in.plane(c);
      std::uint64_t* dst = out.plane(c);
      for (Dim oh = 0; oh < s.out_h; ++oh) {
        for (Dim ow0 = 0; ow0 < s.out_w; ow0 += 32) {
          const Dim n = std::min<Dim>(32, s.out_w - ow0);
          const std::uint64_t a =
              take_bits(src, (2 * oh) * in.w + 2 * ow0, 2 * n);
          const std::uint64_t b =
              take_bits(src, (2 * oh + 1) * in.w + 2 * ow0, 2 * n);
          std::uint64_t x = a | b;
          x = (x | (x >> 1)) & 0x5555555555555555ULL;
          x = (x | (x >> 1)) & 0x3333333333333333ULL;
          x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0FULL;
          x = (x | (x >> 4)) & 0x00FF00FF00FF00FFULL;
          x = (x | (x >> 8)) & 0x0000FFFF0000FFFFULL;
          x = (x | (x >> 16)) & 0x00000000FFFFFFFFULL;
          or_bits(dst, oh * s.out_w + ow0, x, n);
        }
      }
    }
  });
  return out;
}

// Compacts the plane-padded map into the contiguous (c·H + y)·W + x bit
// order dense weights were packed against.
BitVector flatten_planes(const PlanedBitMap& in) {
  const Dim per_plane = in.h * in.w;
  BitVector flat(in.ch * per_plane);
  for (Dim c = 0; c < in.ch; ++c) {
    copy_bits(in.plane(c), 0, flat.data(), c * per_plane, per_plane);
  }
  return flat;
}

std::vector<std::int32_t> run_reference_packed(const CompiledBnn& net,
                                               const std::vector<int>& px) {
  PlanedBitMap fmap =
      exec_fixed_point_conv_packed(net.stages.front(), px, net.input_levels);
  BitVector flat;
  bool flat_valid = false;
  for (std::size_t s = 1; s < net.stages.size(); ++s) {
    const CompiledStage& stage = net.stages[s];
    switch (stage.kind) {
      case StageKind::kBinaryConv:
        MPCNN_CHECK(!flat_valid, "conv stage after dense");
        fmap = core::integrity::instrumented()
                   ? exec_binary_conv_checked(stage, fmap)
                   : exec_binary_conv_packed(stage, fmap);
        break;
      case StageKind::kMaxPoolBinary:
        MPCNN_CHECK(!flat_valid, "pool stage after dense");
        fmap = exec_maxpool_packed(stage, fmap);
        break;
      case StageKind::kBinaryDense:
      case StageKind::kOutputDense: {
        if (!flat_valid) {
          flat = flatten_planes(fmap);
          flat_valid = true;
        }
        MPCNN_CHECK(flat.size() == stage.in_ch,
                    "dense stage input width mismatch");
        const Dim cols = stage.weights.cols();
        const Dim wpr = stage.weights.words_per_row();
        const detail::BnnKernels& kern = detail::kernels();
        std::vector<std::int32_t> accs(
            static_cast<std::size_t>(stage.out_ch));
        if (core::integrity::instrumented()) {
          // Checked path: the activation vector becomes a 1-row packed
          // matrix so the dense product flows through the ABFT'd
          // xnor_gemm.  Same accumulators, now checksum-verified.
          BitMatrix act(1, stage.in_ch);
          std::copy(flat.data(), flat.data() + wpr, act.row_data(0));
          xnor_gemm(stage.weights, act, accs.data());
        } else {
          core::parallel_for(0, stage.out_ch, 8, [&](Dim c0, Dim c1) {
            for (Dim oc = c0; oc < c1; ++oc) {
              accs[static_cast<std::size_t>(oc)] = static_cast<std::int32_t>(
                  cols - 2 * kern.xor_pop(stage.weights.row_data(oc),
                                          flat.data(), wpr));
            }
          });
        }
        if (stage.kind == StageKind::kOutputDense) return accs;
        BitVector next(stage.out_ch);
        for (Dim oc = 0; oc < stage.out_ch; ++oc) {
          next.set(oc, fire_binary(stage, oc,
                                   accs[static_cast<std::size_t>(oc)]));
        }
        flat = std::move(next);
        break;
      }
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
        Dim bit = 0;
        for (Dim c = 0; c < first.in_ch; ++c) {
          for (Dim kh = 0; kh < first.kernel; ++kh) {
            for (Dim kw = 0; kw < first.kernel; ++kw, ++bit) {
              const int x = px[static_cast<std::size_t>(
                  (c * first.in_h + oh + kh) * first.in_w + ow + kw)];
              acc += first.weights.get(oc, bit) ? x : -x;
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
              Dim bit = 0;
              for (Dim c = 0; c < stage.in_ch; ++c) {
                for (Dim kh = 0; kh < stage.kernel; ++kh) {
                  for (Dim kw = 0; kw < stage.kernel; ++kw, ++bit) {
                    const std::int64_t x =
                        fmap.encoded(c, oh + kh, ow + kw);
                    acc += stage.weights.get(oc, bit) ? x : -x;
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

  // Quantise to integers 0..levels.
  std::vector<int> pixels(static_cast<std::size_t>(image.numel()));
  const float levels = static_cast<float>(net.input_levels);
  for (Dim i = 0; i < image.numel(); ++i) {
    pixels[static_cast<std::size_t>(i)] = static_cast<int>(
        std::lround(std::clamp(image[i], 0.0f, 1.0f) * levels));
  }
  const bool binary = net.fully_binary();
  MPCNN_CHECK(binary || exec != BnnExec::kPacked,
              "packed engine requires a fully binarised net");
  return binary && exec != BnnExec::kOracle
             ? run_reference_packed(net, pixels)
             : run_reference_generic(net, pixels);
}

std::vector<std::vector<std::int32_t>> run_reference_batch(
    const CompiledBnn& net, const Tensor& images, BnnExec exec) {
  MPCNN_CHECK(images.shape().rank() == 4,
              "run_reference_batch expects NCHW images");
  const Dim n = images.shape()[0];
  std::vector<std::vector<std::int32_t>> scores(static_cast<std::size_t>(n));
  // Per-image fan-out over the shared pool: run_reference only reads the
  // compiled net (integer arithmetic, so even the order is moot) and
  // each image writes its own scores slot.  The engine's internal
  // parallelism nests inline under this region.
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
