#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/error.hpp"

namespace mpcnn::nn {

float SoftmaxCrossEntropy::forward(const Tensor& logits,
                                   const std::vector<int>& labels) {
  MPCNN_CHECK(logits.shape().rank() == 2, "loss expects (N, classes)");
  const Dim N = logits.shape()[0], C = logits.shape()[1];
  MPCNN_CHECK(static_cast<Dim>(labels.size()) == N,
              "labels size " << labels.size() << " != batch " << N);
  probs_ = Tensor(logits.shape());
  labels_ = labels;
  float loss = 0.0f;
  for (Dim n = 0; n < N; ++n) {
    const int label = labels[static_cast<std::size_t>(n)];
    MPCNN_CHECK(label >= 0 && label < C, "label " << label << " out of "
                                                  << C);
    const float* row = logits.data() + n * C;
    float* prow = probs_.data() + n * C;
    const float mx = *std::max_element(row, row + C);
    float denom = 0.0f;
    for (Dim c = 0; c < C; ++c) {
      prow[c] = std::exp(row[c] - mx);
      denom += prow[c];
    }
    for (Dim c = 0; c < C; ++c) prow[c] /= denom;
    loss -= std::log(std::max(prow[label], 1e-12f));
  }
  return loss / static_cast<float>(N);
}

Tensor SoftmaxCrossEntropy::backward() const {
  MPCNN_CHECK(!labels_.empty(), "loss backward before forward");
  const Dim N = probs_.shape()[0], C = probs_.shape()[1];
  Tensor grad = probs_;
  const float inv_n = 1.0f / static_cast<float>(N);
  for (Dim n = 0; n < N; ++n) {
    grad[n * C + labels_[static_cast<std::size_t>(n)]] -= 1.0f;
  }
  grad.scale(inv_n);
  return grad;
}

}  // namespace mpcnn::nn
