#include "nn/activations.hpp"

namespace mpcnn::nn {

Tensor ReLU::forward(const Tensor& in) {
  Tensor out = in;
  mask_.assign(static_cast<std::size_t>(in.numel()), false);
  for (Dim i = 0; i < out.numel(); ++i) {
    if (out[i] > 0.0f) {
      mask_[static_cast<std::size_t>(i)] = true;
    } else {
      out[i] = 0.0f;
    }
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  MPCNN_CHECK(static_cast<std::size_t>(grad_out.numel()) == mask_.size(),
              "ReLU backward before forward");
  Tensor grad_in = grad_out;
  for (Dim i = 0; i < grad_in.numel(); ++i) {
    if (!mask_[static_cast<std::size_t>(i)]) grad_in[i] = 0.0f;
  }
  return grad_in;
}

}  // namespace mpcnn::nn
