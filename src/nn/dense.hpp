// Fully-connected (inner-product) layer.
#pragma once

#include "nn/layer.hpp"

namespace mpcnn::nn {

/// Dense layer: y = W·x + b.  Accepts any input rank; everything after
/// the batch dimension is flattened.  Weight layout (out, in) row-major.
class Dense final : public Layer {
 public:
  Dense(Dim in_features, Dim out_features, bool bias = true);

  /// He-normal weight initialisation.
  void init(Rng& rng);
  void init_params(Rng& rng) override { init(rng); }

  Tensor infer(Tensor in) const override { return run(in); }
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::string name() const override;
  Shape output_shape(const Shape& in) const override;
  std::int64_t macs(const Shape& in) const override;

  Dim in_features() const { return in_features_; }
  Dim out_features() const { return out_features_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  Tensor run(const Tensor& in) const;

  Dim in_features_, out_features_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_in_;    // flattened (N, in_features)
  Shape orig_in_shape_;  // pre-flatten shape, restored on the grad path
};

}  // namespace mpcnn::nn
