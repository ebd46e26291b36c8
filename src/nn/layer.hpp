// Layer abstraction of the float CNN framework (the "Caffe on the ARM
// host" substrate of the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace mpcnn::nn {

/// A learnable parameter: value plus accumulated gradient.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  Param(std::string n, Shape shape)
      : name(std::move(n)), value(shape), grad(shape) {}
};

/// Base class for all layers.  Two entry points compute the output:
/// infer() is the inference path — const, eval-mode, and it touches no
/// member, so one layer may serve concurrent callers.  forward() is the
/// training forward: it caches whatever backward() needs, so a
/// forward/backward pair must not be interleaved with another forward
/// on the same layer instance.  In eval mode its output is bit-identical
/// to infer(); only batch-norm and dropout compute differently when
/// training.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Eval-mode output for a (possibly batched) input.  Takes the input
  /// by value so pointwise layers can work in its storage.
  virtual Tensor infer(Tensor in) const = 0;

  /// Training forward: records what backward() needs, then computes the
  /// output (the infer() math, plus the training branches of batch-norm
  /// and dropout).
  virtual Tensor forward(const Tensor& in) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Randomises learnable parameters (no-op for stateless layers).
  virtual void init_params(Rng& rng) { (void)rng; }

  /// Every tensor that must be persisted to reproduce inference: the
  /// parameter values plus any non-learnable state (e.g. batch-norm
  /// running statistics).
  virtual std::vector<Tensor*> state() {
    std::vector<Tensor*> s;
    for (Param* p : params()) s.push_back(&p->value);
    return s;
  }

  /// Internal PRNG, for layers whose *training-time* behaviour is
  /// stochastic (dropout).  Checkpoints persist it so a resumed run
  /// replays the exact same masks as an uninterrupted one; inference
  /// never consumes it.  nullptr for deterministic layers.
  virtual Rng* rng_state() { return nullptr; }

  /// Short type/config description, e.g. "conv3x3-64".
  virtual std::string name() const = 0;

  /// Output shape for a given input shape (batch dim preserved).
  virtual Shape output_shape(const Shape& in) const = 0;

  /// Multiply-accumulate count for one *single* input item of shape `in`
  /// (batch dimension excluded by the caller).  Used by the cost tables.
  virtual std::int64_t macs(const Shape& in) const {
    (void)in;
    return 0;
  }

  /// Toggle train/eval behaviour (dropout, batch-norm).
  void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

 protected:
  Layer() = default;
  bool training_ = false;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace mpcnn::nn
