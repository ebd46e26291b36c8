// Batch normalisation.
//
// Spatial mode normalises per channel over (N, H, W); flat mode (rank-2
// inputs) normalises per feature.  The BNN training graph relies on this
// layer, whose parameters are later folded into integer thresholds by the
// FINN compiler (src/bnn/compile).
#pragma once

#include "nn/layer.hpp"

namespace mpcnn::nn {

/// Batch-norm with learnable scale/shift and running statistics for eval.
class BatchNorm final : public Layer {
 public:
  explicit BatchNorm(Dim channels, float momentum = 0.9f,
                     float epsilon = 1e-5f);

  /// Normalises with the running statistics, in place.
  Tensor infer(Tensor in) const override;
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::vector<Tensor*> state() override {
    return {&gamma_.value, &beta_.value, &running_mean_, &running_var_};
  }
  std::string name() const override { return "batchnorm"; }
  Shape output_shape(const Shape& in) const override { return in; }

  Dim channels() const { return channels_; }
  float epsilon() const { return epsilon_; }

  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  Tensor& mutable_running_mean() { return running_mean_; }
  Tensor& mutable_running_var() { return running_var_; }

 private:
  Dim channels_;
  float momentum_, epsilon_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  // Cached by forward (training mode) for backward.
  Tensor cached_in_, cached_xhat_;
  Tensor batch_mean_, batch_var_;
};

}  // namespace mpcnn::nn
