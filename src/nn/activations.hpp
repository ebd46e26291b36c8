// Pointwise activation layers.
#pragma once

#include "nn/layer.hpp"

namespace mpcnn::nn {

/// Rectified linear unit.
class ReLU final : public Layer {
 public:
  ReLU() = default;
  /// In place: x > 0 ? x : 0, so -0.0 and NaN both map to +0.0.
  Tensor infer(Tensor in) const override;
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "relu"; }
  Shape output_shape(const Shape& in) const override { return in; }

 private:
  std::vector<bool> mask_;
};

}  // namespace mpcnn::nn
