#include "nn/batchnorm.hpp"

#include <cmath>

namespace mpcnn::nn {
namespace {

// Iterates a NCHW or NC tensor as (item, channel) pairs where `per` is the
// spatial extent (H*W, or 1 for flat inputs).
struct ChannelView {
  Dim N, C, per;
};

ChannelView view_of(const Shape& s, Dim channels) {
  MPCNN_CHECK(s.rank() == 2 || s.rank() == 4,
              "BatchNorm expects rank 2 or 4, got " << s.str());
  MPCNN_CHECK(s[1] == channels, "BatchNorm channels " << s[1] << " != "
                                                      << channels);
  const Dim per = s.rank() == 4 ? s[2] * s[3] : 1;
  return ChannelView{s[0], s[1], per};
}

}  // namespace

BatchNorm::BatchNorm(Dim channels, float momentum, float epsilon)
    : channels_(channels),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_("bn.gamma", Shape{channels}),
      beta_("bn.beta", Shape{channels}),
      running_mean_(Shape{channels}),
      running_var_(Shape{channels}) {
  MPCNN_CHECK(channels > 0, "bad BatchNorm channels");
  gamma_.value.fill(1.0f);
  running_var_.fill(1.0f);
}

Tensor BatchNorm::infer(Tensor in) const {
  const ChannelView v = view_of(in.shape(), channels_);
  for (Dim n = 0; n < v.N; ++n) {
    for (Dim c = 0; c < v.C; ++c) {
      const float inv_std = 1.0f / std::sqrt(running_var_[c] + epsilon_);
      const float mean = running_mean_[c];
      const float g = gamma_.value[c], b = beta_.value[c];
      float* x = in.data() + (n * v.C + c) * v.per;
      for (Dim i = 0; i < v.per; ++i) x[i] = g * (x[i] - mean) * inv_std + b;
    }
  }
  return in;
}

Tensor BatchNorm::forward(const Tensor& in) {
  if (!training_) return infer(in);
  const ChannelView v = view_of(in.shape(), channels_);
  Tensor out(in.shape());
  const float count = static_cast<float>(v.N * v.per);
  batch_mean_ = Tensor(Shape{channels_});
  batch_var_ = Tensor(Shape{channels_});
  for (Dim c = 0; c < v.C; ++c) {
    float mean = 0.0f;
    for (Dim n = 0; n < v.N; ++n) {
      const float* p = in.data() + (n * v.C + c) * v.per;
      for (Dim i = 0; i < v.per; ++i) mean += p[i];
    }
    mean /= count;
    float var = 0.0f;
    for (Dim n = 0; n < v.N; ++n) {
      const float* p = in.data() + (n * v.C + c) * v.per;
      for (Dim i = 0; i < v.per; ++i) {
        const float d = p[i] - mean;
        var += d * d;
      }
    }
    var /= count;
    batch_mean_[c] = mean;
    batch_var_[c] = var;
    running_mean_[c] =
        momentum_ * running_mean_[c] + (1.0f - momentum_) * mean;
    running_var_[c] = momentum_ * running_var_[c] + (1.0f - momentum_) * var;
  }
  cached_in_ = in;
  cached_xhat_ = Tensor(in.shape());
  for (Dim n = 0; n < v.N; ++n) {
    for (Dim c = 0; c < v.C; ++c) {
      const float inv_std = 1.0f / std::sqrt(batch_var_[c] + epsilon_);
      const float mean = batch_mean_[c];
      const float g = gamma_.value[c], b = beta_.value[c];
      const Dim base = (n * v.C + c) * v.per;
      for (Dim i = 0; i < v.per; ++i) {
        const float xhat = (in[base + i] - mean) * inv_std;
        cached_xhat_[base + i] = xhat;
        out[base + i] = g * xhat + b;
      }
    }
  }
  return out;
}

Tensor BatchNorm::backward(const Tensor& grad_out) {
  MPCNN_CHECK(grad_out.same_shape(cached_in_),
              "BatchNorm backward before training forward");
  const ChannelView v = view_of(cached_in_.shape(), channels_);
  const float count = static_cast<float>(v.N * v.per);
  Tensor grad_in(cached_in_.shape());
  for (Dim c = 0; c < v.C; ++c) {
    float dgamma = 0.0f, dbeta = 0.0f;
    for (Dim n = 0; n < v.N; ++n) {
      const Dim base = (n * v.C + c) * v.per;
      for (Dim i = 0; i < v.per; ++i) {
        dgamma += grad_out[base + i] * cached_xhat_[base + i];
        dbeta += grad_out[base + i];
      }
    }
    gamma_.grad[c] += dgamma;
    beta_.grad[c] += dbeta;
    const float inv_std = 1.0f / std::sqrt(batch_var_[c] + epsilon_);
    const float g = gamma_.value[c];
    for (Dim n = 0; n < v.N; ++n) {
      const Dim base = (n * v.C + c) * v.per;
      for (Dim i = 0; i < v.per; ++i) {
        const float go = grad_out[base + i];
        grad_in[base + i] =
            g * inv_std *
            (go - dbeta / count - cached_xhat_[base + i] * dgamma / count);
      }
    }
  }
  return grad_in;
}

std::vector<Param*> BatchNorm::params() { return {&gamma_, &beta_}; }

}  // namespace mpcnn::nn
