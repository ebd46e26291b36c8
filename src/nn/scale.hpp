// Fixed scalar scale layer.
#pragma once

#include <sstream>

#include "nn/layer.hpp"

namespace mpcnn::nn {

/// Multiplies activations by a compile-time constant.  Used to soften the
/// logits of binarised networks (integer scores of magnitude ~fc_width
/// would saturate the softmax); being a positive monotone map it changes
/// neither the argmax nor the score ordering, so the lowered integer
/// network simply omits it.
class Scale final : public Layer {
 public:
  explicit Scale(float factor) : factor_(factor) {
    MPCNN_CHECK(factor > 0.0f, "Scale factor must be positive");
  }

  Tensor infer(Tensor in) const override {
    in.scale(factor_);
    return in;
  }

  Tensor forward(const Tensor& in) override { return infer(in); }

  Tensor backward(const Tensor& grad_out) override {
    Tensor grad_in = grad_out;
    grad_in.scale(factor_);
    return grad_in;
  }

  std::string name() const override {
    std::ostringstream os;
    os << "scale(" << factor_ << ")";
    return os.str();
  }

  Shape output_shape(const Shape& in) const override { return in; }

  float factor() const { return factor_; }

 private:
  float factor_;
};

}  // namespace mpcnn::nn
