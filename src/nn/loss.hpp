// Training losses.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace mpcnn::nn {

/// Fused softmax + cross-entropy.  forward() returns the mean loss over
/// the batch; backward() returns dLoss/dLogits for the same batch.
class SoftmaxCrossEntropy {
 public:
  float forward(const Tensor& logits, const std::vector<int>& labels);
  Tensor backward() const;

 private:
  Tensor probs_;
  std::vector<int> labels_;
};

}  // namespace mpcnn::nn
