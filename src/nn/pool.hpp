// Spatial pooling layers (max, average, global average).
#pragma once

#include "nn/layer.hpp"

namespace mpcnn::nn {

enum class PoolMode { kMax, kAverage };

/// Square-window pooling.  Ceil mode with edge clipping (Caffe default
/// semantics): a window may start anywhere a new stride step lands inside
/// the image and is clipped at the right/bottom edge, so 3×3/s2 over
/// 32×32 gives 16×16, as does 2×2/s2.
class Pool2D final : public Layer {
 public:
  Pool2D(PoolMode mode, Dim kernel, Dim stride);

  Tensor infer(Tensor in) const override;
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override;
  Shape output_shape(const Shape& in) const override;

  PoolMode mode() const { return mode_; }
  Dim kernel() const { return kernel_; }
  Dim stride() const { return stride_; }

 private:
  // The window loop of infer() and forward(); forward passes `argmax`
  // (kMax) or `counts` (kAverage) to record what backward() needs.
  Tensor pool(const Tensor& in, Dim* argmax, float* counts) const;

  PoolMode mode_;
  Dim kernel_, stride_;
  Shape in_shape_;
  std::vector<Dim> argmax_;     // kMax: winning input index per output
  std::vector<float> counts_;   // kAverage: window population per output
};

/// Global average pooling: NCHW → NC11.  Used as the classifier head of
/// the NiN and All-Convolutional models (Table III, Models B and C).
class GlobalAvgPool final : public Layer {
 public:
  GlobalAvgPool() = default;

  Tensor infer(Tensor in) const override { return run(in); }
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "global-avg-pool"; }
  Shape output_shape(const Shape& in) const override;

 private:
  Tensor run(const Tensor& in) const;

  Shape in_shape_;
};

}  // namespace mpcnn::nn
