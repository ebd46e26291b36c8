#include "nn/dropout.hpp"

#include <sstream>

namespace mpcnn::nn {

Dropout::Dropout(float rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  MPCNN_CHECK(rate >= 0.0f && rate < 1.0f, "dropout rate " << rate);
}

Tensor Dropout::forward(const Tensor& in) {
  if (!training_ || rate_ == 0.0f) {
    keep_.clear();
    return infer(in);
  }
  Tensor out = in;
  keep_.assign(static_cast<std::size_t>(in.numel()), true);
  const float inv_keep = 1.0f / (1.0f - rate_);
  for (Dim i = 0; i < out.numel(); ++i) {
    if (rng_.bernoulli(rate_)) {
      keep_[static_cast<std::size_t>(i)] = false;
      out[i] = 0.0f;
    } else {
      out[i] *= inv_keep;
    }
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (keep_.empty()) return grad_out;  // eval-mode forward
  MPCNN_CHECK(static_cast<std::size_t>(grad_out.numel()) == keep_.size(),
              "Dropout backward shape");
  Tensor grad_in = grad_out;
  const float inv_keep = 1.0f / (1.0f - rate_);
  for (Dim i = 0; i < grad_in.numel(); ++i) {
    grad_in[i] = keep_[static_cast<std::size_t>(i)] ? grad_in[i] * inv_keep
                                                    : 0.0f;
  }
  return grad_in;
}

std::string Dropout::name() const {
  std::ostringstream os;
  os << "dropout(" << rate_ << ")";
  return os.str();
}

}  // namespace mpcnn::nn
