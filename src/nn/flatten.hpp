// Flatten layer: (N, C, H, W) → (N, C·H·W).
#pragma once

#include <utility>

#include "nn/layer.hpp"

namespace mpcnn::nn {

/// Shape-only layer used between feature extractors and classifier heads.
class Flatten final : public Layer {
 public:
  Flatten() = default;

  Tensor infer(Tensor in) const override {
    const Shape out = output_shape(in.shape());
    return std::move(in).reshaped(out);
  }

  Tensor forward(const Tensor& in) override {
    in_shape_ = in.shape();
    return infer(in);
  }

  Tensor backward(const Tensor& grad_out) override {
    return grad_out.reshaped(in_shape_);
  }

  std::string name() const override { return "flatten"; }

  Shape output_shape(const Shape& in) const override {
    MPCNN_CHECK(in.rank() >= 2, "Flatten expects batched input");
    return Shape{in[0], in.numel() / in[0]};
  }

 private:
  Shape in_shape_;
};

}  // namespace mpcnn::nn
