#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "core/threadpool.hpp"
#include "tensor/gemm.hpp"

namespace mpcnn::nn {
namespace {

// Fan-out of the batch-gradient reduction in backward().  A fixed cap —
// never the worker count — so the number of private dW buffers (memory)
// and the reduction order (bits) are the same on every machine.
constexpr Dim kGradChunks = 8;

}  // namespace

Conv2D::Conv2D(Dim in_channels, Dim out_channels, Dim kernel, Dim stride,
               Dim pad, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_("conv.weight",
              Shape{out_channels, in_channels * kernel * kernel}),
      bias_("conv.bias", Shape{bias ? out_channels : 0}) {
  MPCNN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                  stride > 0 && pad >= 0,
              "bad Conv2D config");
}

void Conv2D::init(Rng& rng) {
  const float fan_in = static_cast<float>(in_channels_ * kernel_ * kernel_);
  weight_.value.fill_normal(rng, 0.0f, std::sqrt(2.0f / fan_in));
  if (has_bias_) bias_.value.fill(0.0f);
}

ConvGeometry Conv2D::geometry(const Shape& in) const {
  MPCNN_CHECK(in.rank() == 4, "Conv2D expects NCHW, got " << in.str());
  MPCNN_CHECK(in[1] == in_channels_, "Conv2D channel mismatch: input "
                                         << in[1] << " vs layer "
                                         << in_channels_);
  ConvGeometry g;
  g.in_channels = in_channels_;
  g.in_h = in[2];
  g.in_w = in[3];
  g.kernel = kernel_;
  g.stride = stride_;
  g.pad = pad_;
  MPCNN_CHECK(g.valid(), "degenerate conv output for input " << in.str());
  return g;
}

Shape Conv2D::output_shape(const Shape& in) const {
  const ConvGeometry g = geometry(in);
  return Shape{in[0], out_channels_, g.out_h(), g.out_w()};
}

std::int64_t Conv2D::macs(const Shape& in) const {
  const ConvGeometry g = geometry(in);
  return out_channels_ * g.patch_size() * g.positions();
}

Tensor Conv2D::run(const Tensor& in, bool relu) const {
  const ConvGeometry g = geometry(in.shape());
  const Dim N = in.shape()[0];
  const Dim patch = g.patch_size(), pos = g.positions();
  Tensor out(output_shape(in.shape()));
  const Dim in_per = in.numel() / N;
  const Dim out_per = out.numel() / N;
  const float* bias = has_bias_ ? bias_.value.data() : nullptr;
  // Batch fan-out: each image writes its own slice of `out`, so chunks
  // are disjoint and the per-image compute order is fixed (the nested
  // im2col/gemm parallel_for calls run inline inside a chunk).
  core::parallel_for(0, N, 1, [&](Dim n0, Dim n1) {
    for (Dim n = n0; n < n1; ++n) {
      float* o = out.data() + n * out_per;
      gemm(out_channels_, pos, patch, 1.0f, weight_.value.data(),
           patch_matrix(g, in.data() + n * in_per), 0.0f, o);
      // Per-row epilogue: the bias pass and, when fused, the following
      // ReLU, in the exact form of the separate layers: v = acc + b,
      // then v > 0 ? v : 0 (std::max would keep NaN).
      for (Dim oc = 0; oc < out_channels_; ++oc) {
        float* row = o + oc * pos;
        if (bias != nullptr && relu) {
          const float b = bias[oc];
          for (Dim p = 0; p < pos; ++p) {
            const float v = row[p] + b;
            row[p] = v > 0.0f ? v : 0.0f;
          }
        } else if (bias != nullptr) {
          const float b = bias[oc];
          for (Dim p = 0; p < pos; ++p) row[p] += b;
        } else if (relu) {
          for (Dim p = 0; p < pos; ++p) row[p] = row[p] > 0.0f ? row[p] : 0.0f;
        }
      }
    }
  });
  return out;
}

Tensor Conv2D::forward(const Tensor& in) {
  cached_in_ = in;
  return run(cached_in_, false);
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  const ConvGeometry g = geometry(cached_in_.shape());
  const Dim N = cached_in_.shape()[0];
  const Dim patch = g.patch_size(), pos = g.positions();
  Tensor grad_in(cached_in_.shape());
  const Dim in_per = cached_in_.numel() / N;
  const Dim out_per = grad_out.numel() / N;

  // grad_in slices are disjoint per image, but dW/db accumulate across
  // the batch.  Each chunk sums its images into a private buffer; the
  // buffers are then reduced in chunk order.  The chunk count is a fixed
  // function of N (never of the worker count), so the summation order —
  // and hence the gradient bits — is identical at any thread count.
  const Dim grain = (N + kGradChunks - 1) / kGradChunks;
  const Dim chunks = (N + grain - 1) / grain;
  const Dim w_numel = weight_.grad.numel();
  std::vector<std::vector<float>> dw_parts(
      static_cast<std::size_t>(chunks),
      std::vector<float>(static_cast<std::size_t>(w_numel), 0.0f));
  std::vector<std::vector<float>> db_parts(
      static_cast<std::size_t>(chunks),
      std::vector<float>(static_cast<std::size_t>(has_bias_ ? out_channels_
                                                            : 0),
                         0.0f));

  core::parallel_for(0, N, grain, [&](Dim n0, Dim n1) {
    const Dim ci = n0 / grain;  // exact: chunk starts are multiples of grain
    std::vector<float>& dw = dw_parts[static_cast<std::size_t>(ci)];
    std::vector<float>& db = db_parts[static_cast<std::size_t>(ci)];
    std::vector<float> dcol(static_cast<std::size_t>(patch * pos));
    for (Dim n = n0; n < n1; ++n) {
      const float* go = grad_out.data() + n * out_per;
      // dW += dOut (OD x pos) * col^T (pos x patch)
      const float* col = patch_matrix(g, cached_in_.data() + n * in_per);
      gemm_bt(out_channels_, patch, pos, 1.0f, go, col, 1.0f, dw.data());
      if (has_bias_) {
        for (Dim oc = 0; oc < out_channels_; ++oc) {
          float acc = 0.0f;
          for (Dim p = 0; p < pos; ++p) acc += go[oc * pos + p];
          db[static_cast<std::size_t>(oc)] += acc;
        }
      }
      // dcol = W^T (patch x OD) * dOut (OD x pos)
      gemm_at(patch, pos, out_channels_, 1.0f, weight_.value.data(), go,
              0.0f, dcol.data());
      col2im(g, dcol.data(), grad_in.data() + n * in_per);
    }
  });

  for (Dim ci = 0; ci < chunks; ++ci) {
    const std::vector<float>& dw = dw_parts[static_cast<std::size_t>(ci)];
    for (Dim i = 0; i < w_numel; ++i) weight_.grad[i] += dw[static_cast<std::size_t>(i)];
    if (has_bias_) {
      const std::vector<float>& db = db_parts[static_cast<std::size_t>(ci)];
      for (Dim oc = 0; oc < out_channels_; ++oc) {
        bias_.grad[oc] += db[static_cast<std::size_t>(oc)];
      }
    }
  }
  return grad_in;
}

std::vector<Param*> Conv2D::params() {
  std::vector<Param*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

std::string Conv2D::name() const {
  std::ostringstream os;
  os << kernel_ << "x" << kernel_ << "-conv-" << out_channels_;
  if (stride_ != 1) os << "/s" << stride_;
  return os.str();
}

}  // namespace mpcnn::nn
