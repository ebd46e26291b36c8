#include "nn/lrn.hpp"

#include <algorithm>
#include <cmath>

namespace mpcnn::nn {

namespace {

// k + (alpha/n)·Σ a² over the channel window of channel c, spatial index
// i, of one NCHW item — computed by infer() and recomputed by
// backward() with the same operations, so both see the same bits.
float window_scale(const float* item, Dim C, Dim HW, Dim c, Dim i, Dim half,
                   float k, float alpha_over_n) {
  const Dim c0 = std::max<Dim>(0, c - half);
  const Dim c1 = std::min(C - 1, c + half);
  float acc = 0.0f;
  for (Dim cc = c0; cc <= c1; ++cc) {
    const float v = item[cc * HW + i];
    acc += v * v;
  }
  return k + alpha_over_n * acc;
}

}  // namespace

LRN::LRN(Dim local_size, float alpha, float beta, float k)
    : local_size_(local_size), alpha_(alpha), beta_(beta), k_(k) {
  MPCNN_CHECK(local_size > 0 && local_size % 2 == 1,
              "LRN local_size must be odd and positive");
}

Tensor LRN::run(const Tensor& in) const {
  MPCNN_CHECK(in.shape().rank() == 4, "LRN expects NCHW");
  const Dim N = in.shape()[0], C = in.shape()[1],
            HW = in.shape()[2] * in.shape()[3];
  Tensor out(in.shape());
  const Dim half = local_size_ / 2;
  const float alpha_over_n = alpha_ / static_cast<float>(local_size_);
  for (Dim n = 0; n < N; ++n) {
    const float* item = in.data() + n * C * HW;
    for (Dim c = 0; c < C; ++c) {
      for (Dim i = 0; i < HW; ++i) {
        const Dim idx = (n * C + c) * HW + i;
        const float s =
            window_scale(item, C, HW, c, i, half, k_, alpha_over_n);
        out[idx] = in[idx] * std::pow(s, -beta_);
      }
    }
  }
  return out;
}

Tensor LRN::forward(const Tensor& in) {
  cached_in_ = in;
  return run(cached_in_);
}

Tensor LRN::backward(const Tensor& grad_out) {
  MPCNN_CHECK(grad_out.same_shape(cached_in_), "LRN backward before forward");
  const Dim N = cached_in_.shape()[0], C = cached_in_.shape()[1],
            HW = cached_in_.shape()[2] * cached_in_.shape()[3];
  const Dim half = local_size_ / 2;
  const float alpha_over_n = alpha_ / static_cast<float>(local_size_);
  Tensor grad_in(cached_in_.shape());
  // d b_c / d a_j = δ_cj · s_c^-β  −  2β·(α/n)·a_c·a_j·s_c^(−β−1)  for j in
  // the window of c.  Accumulate per input element over all windows that
  // contain it.
  for (Dim n = 0; n < N; ++n) {
    const float* item = cached_in_.data() + n * C * HW;
    for (Dim i = 0; i < HW; ++i) {
      for (Dim c = 0; c < C; ++c) {
        const Dim idx_c = (n * C + c) * HW + i;
        const float s =
            window_scale(item, C, HW, c, i, half, k_, alpha_over_n);
        const float g = grad_out[idx_c];
        const float s_mb = std::pow(s, -beta_);
        grad_in[idx_c] += g * s_mb;
        const float common =
            -2.0f * beta_ * alpha_over_n * cached_in_[idx_c] * g * s_mb / s;
        const Dim c0 = std::max<Dim>(0, c - half);
        const Dim c1 = std::min(C - 1, c + half);
        for (Dim j = c0; j <= c1; ++j) {
          const Dim idx_j = (n * C + j) * HW + i;
          grad_in[idx_j] += common * cached_in_[idx_j];
        }
      }
    }
  }
  return grad_in;
}

}  // namespace mpcnn::nn
