// Local response normalisation (cross-channel), as used by Model A
// (cuda-convnet style CIFAR-10 network, Table III).
#pragma once

#include "nn/layer.hpp"

namespace mpcnn::nn {

/// Cross-channel LRN:  b_c = a_c / (k + (alpha/n) * Σ_{c'∈window} a_{c'}²)^β
/// with a window of `local_size` channels centred on c.
class LRN final : public Layer {
 public:
  explicit LRN(Dim local_size = 3, float alpha = 5e-5f, float beta = 0.75f,
               float k = 1.0f);

  Tensor infer(Tensor in) const override { return run(in); }
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "lrn"; }
  Shape output_shape(const Shape& in) const override { return in; }

 private:
  Tensor run(const Tensor& in) const;

  Dim local_size_;
  float alpha_, beta_, k_;
  Tensor cached_in_;
};

}  // namespace mpcnn::nn
