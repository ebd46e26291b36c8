// 2-D convolution lowered to im2col + GEMM.
#pragma once

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace mpcnn::nn {

/// Standard float convolution with square kernels and symmetric padding.
/// Weight layout: (out_channels, in_channels*K*K) so the forward pass is
/// a single GEMM against the im2col patch matrix.
class Conv2D final : public Layer {
 public:
  Conv2D(Dim in_channels, Dim out_channels, Dim kernel, Dim stride = 1,
         Dim pad = 0, bool bias = true);

  /// He-normal weight initialisation.
  void init(Rng& rng);
  void init_params(Rng& rng) override { init(rng); }

  Tensor infer(Tensor in) const override { return run(in, false); }
  /// infer() followed by a ReLU, fused into the per-row epilogue over
  /// the GEMM output: v = acc + bias, then v > 0 ? v : 0 — the exact
  /// operations of the separate bias pass and ReLU layer.
  Tensor infer_relu(const Tensor& in) const { return run(in, true); }
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::string name() const override;
  Shape output_shape(const Shape& in) const override;
  std::int64_t macs(const Shape& in) const override;

  Dim in_channels() const { return in_channels_; }
  Dim out_channels() const { return out_channels_; }
  Dim kernel() const { return kernel_; }
  Dim stride() const { return stride_; }
  Dim pad() const { return pad_; }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }

 private:
  ConvGeometry geometry(const Shape& in) const;
  Tensor run(const Tensor& in, bool relu) const;

  Dim in_channels_, out_channels_, kernel_, stride_, pad_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_in_;
};

}  // namespace mpcnn::nn
