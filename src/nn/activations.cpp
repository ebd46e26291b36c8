#include "nn/activations.hpp"

namespace mpcnn::nn {

Tensor ReLU::infer(Tensor in) const {
  float* x = in.data();
  const Dim n = in.numel();
  for (Dim i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
  return in;
}

Tensor ReLU::forward(const Tensor& in) {
  const Dim n = in.numel();
  mask_.resize(static_cast<std::size_t>(n));
  for (Dim i = 0; i < n; ++i) mask_[static_cast<std::size_t>(i)] = in[i] > 0.0f;
  return infer(in);
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
