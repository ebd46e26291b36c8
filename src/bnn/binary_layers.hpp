// Training-graph layers for binarised networks (Courbariaux et al.).
//
// Weights and activations are constrained to ±1 in the forward pass while
// float "shadow" weights receive straight-through-estimator gradients.
// After training, src/bnn/compile.hpp lowers the graph to pure integer
// XNOR-popcount-threshold form.
#pragma once

#include <vector>

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace mpcnn::bnn {

/// Quantises inputs to unsigned 8-bit fixed point (the FINN first-layer
/// input format); straight-through gradient.
class QuantizeInput final : public nn::Layer {
 public:
  explicit QuantizeInput(int bits = 8);

  Tensor infer(Tensor in) const override;
  Tensor forward(const Tensor& in) override { return infer(in); }
  Tensor backward(const Tensor& grad_out) override { return grad_out; }
  std::string name() const override;
  Shape output_shape(const Shape& in) const override { return in; }

  int bits() const { return bits_; }
  int levels() const { return levels_; }

 private:
  int bits_;
  int levels_;
};

/// Sign activation with clipped straight-through estimator:
/// y = +1 if x >= 0 else −1;  dy/dx ≈ 1{|x| <= 1}.
class BinActive final : public nn::Layer {
 public:
  BinActive() = default;

  Tensor infer(Tensor in) const override;
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "binact"; }
  Shape output_shape(const Shape& in) const override { return in; }

 private:
  Tensor cached_in_;
};

/// Uniform multi-bit activation on [-1, 1] with straight-through
/// gradient — the "partially-binarised network" extension of §II, where
/// inner layers carry more than one bit.  With `bits == 1` it degenerates
/// to BinActive's sign function.
///
/// The forward value is one of the 2^bits levels
///   x_q = 2·q/(L−1) − 1,  q ∈ {0, …, L−1},  L = 2^bits,
/// chosen by rounding; the FINN compiler folds the following batch-norm
/// plus this quantiser into L−1 integer thresholds per channel.
class QuantActive final : public nn::Layer {
 public:
  explicit QuantActive(int bits);

  Tensor infer(Tensor in) const override;
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override;
  Shape output_shape(const Shape& in) const override { return in; }

  int bits() const { return bits_; }
  int levels() const { return levels_; }

  /// The representable level values, ascending.
  std::vector<float> level_values() const;

 private:
  int bits_;
  int levels_;
  Tensor cached_in_;
};

/// Convolution with weights binarised to sign(W) in the forward pass.
/// Stride 1, no padding (the Table I topology applies none).
/// forward() clips the shadow weights to [-1, 1] in place; the const
/// infer() cannot, and need not: clipping never changes a sign bit.
class BinConv2D final : public nn::Layer {
 public:
  BinConv2D(Dim in_channels, Dim out_channels, Dim kernel);

  void init(Rng& rng);
  void init_params(Rng& rng) override { init(rng); }

  Tensor infer(Tensor in) const override;
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<nn::Param*> params() override { return {&weight_}; }
  std::string name() const override;
  Shape output_shape(const Shape& in) const override;
  std::int64_t macs(const Shape& in) const override;

  Dim in_channels() const { return in_channels_; }
  Dim out_channels() const { return out_channels_; }
  Dim kernel() const { return kernel_; }
  nn::Param& weight() { return weight_; }

 private:
  ConvGeometry geometry(const Shape& in) const;
  // The convolution against the ±1 weights `binary`: infer() passes the
  // signs of the shadow weights, forward() the copy it refreshed.
  Tensor run(const Tensor& in, const Tensor& binary) const;

  Dim in_channels_, out_channels_, kernel_;
  nn::Param weight_;       // float shadow weights, clipped to [-1, 1]
  Tensor binary_weight_;   // sign(shadow), refreshed each forward
  Tensor cached_in_;
  // Per-layer backward scratch for the patch-matrix gradient, reused
  // across calls so the hot training loop does not reallocate
  // patch×positions floats every step.
  std::vector<float> dcol_scratch_;
};

/// Dense layer with binarised weights.
class BinDense final : public nn::Layer {
 public:
  BinDense(Dim in_features, Dim out_features);

  void init(Rng& rng);
  void init_params(Rng& rng) override { init(rng); }

  Tensor infer(Tensor in) const override;
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<nn::Param*> params() override { return {&weight_}; }
  std::string name() const override;
  Shape output_shape(const Shape& in) const override;
  std::int64_t macs(const Shape& in) const override;

  Dim in_features() const { return in_features_; }
  Dim out_features() const { return out_features_; }
  nn::Param& weight() { return weight_; }

 private:
  Tensor run(const Tensor& in, const Tensor& binary) const;

  Dim in_features_, out_features_;
  nn::Param weight_;
  Tensor binary_weight_;
  Tensor cached_in_;
  Shape orig_in_shape_;
};

}  // namespace mpcnn::bnn
