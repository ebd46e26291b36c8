// Inverted dropout (train-time scaling so inference is a no-op).
#pragma once

#include "nn/layer.hpp"

namespace mpcnn::nn {

/// Drops each activation with probability `rate` during training and
/// rescales survivors by 1/(1-rate); identity in eval mode.
class Dropout final : public Layer {
 public:
  explicit Dropout(float rate, std::uint64_t seed = 0xD120u);

  /// Identity: inverted dropout scales at training time only.
  Tensor infer(Tensor in) const override { return in; }
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override;
  Shape output_shape(const Shape& in) const override { return in; }
  Rng* rng_state() override { return &rng_; }

  float rate() const { return rate_; }

 private:
  float rate_;
  Rng rng_;
  std::vector<bool> keep_;
};

}  // namespace mpcnn::nn
