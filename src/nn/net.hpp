// Sequential network container.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.hpp"

namespace mpcnn::nn {

/// A feed-forward stack of layers with training utilities.
class Net {
 public:
  explicit Net(std::string name, Shape input_shape)
      : name_(std::move(name)), input_shape_(std::move(input_shape)) {}

  Net(Net&&) = default;
  Net& operator=(Net&&) = default;

  /// Appends a layer constructed in place; returns a reference to it.
  template <class L, class... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  /// Randomise all learnable parameters.
  void init(Rng& rng);

  /// Training forward through every layer (caches for backward()).
  Tensor forward(const Tensor& in);

  /// Eval-mode logits through the layers' const infer() path.  Touches
  /// no layer state, so concurrent calls on one Net are safe, each under
  /// its own core::SerialGuard (the shared pool runs one top-level region
  /// at a time).  A Conv2D directly followed by a ReLU runs as one fused
  /// conv+ReLU epilogue.  Bit-identical to forward() in eval mode.
  Tensor infer(const Tensor& in) const;

  /// Backward from dLoss/dOutput; returns dLoss/dInput.
  Tensor backward(const Tensor& grad_out);

  /// All learnable parameters across layers.
  std::vector<Param*> params();

  /// Number of scalar weights.
  std::int64_t num_params() const;

  /// Zeroes every parameter gradient.
  void zero_grads();

  void set_training(bool training);

  /// Argmax class per batch row of infer().
  std::vector<int> predict(const Tensor& batch);

  /// Top-1 accuracy over a dataset given in one tensor.
  float evaluate(const Tensor& images, const std::vector<int>& labels,
                 Dim batch_size = 64);

  /// Total multiply-accumulates for one input item.
  std::int64_t total_macs() const;

  /// Printable per-layer table: name, output shape, params, MACs.
  std::string summary() const;

  const std::string& name() const { return name_; }
  const Shape& input_shape() const { return input_shape_; }
  const std::vector<LayerPtr>& layers() const { return layers_; }
  std::vector<LayerPtr>& layers() { return layers_; }

  /// Output shape for a single input item (batch 1).
  Shape output_shape() const;

 private:
  std::string name_;
  Shape input_shape_;  // shape of ONE item, leading batch dim = 1
  std::vector<LayerPtr> layers_;
};

}  // namespace mpcnn::nn
