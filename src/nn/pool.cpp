#include "nn/pool.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

namespace mpcnn::nn {
namespace {

Dim pooled_extent(Dim in, Dim kernel, Dim stride) {
  // Floor mode: windows must start inside the image; clipped at the edge.
  return (in - kernel) / stride + 1 + ((in - kernel) % stride != 0 ? 1 : 0);
}

}  // namespace

Pool2D::Pool2D(PoolMode mode, Dim kernel, Dim stride)
    : mode_(mode), kernel_(kernel), stride_(stride) {
  MPCNN_CHECK(kernel > 0 && stride > 0, "bad Pool2D config");
}

Shape Pool2D::output_shape(const Shape& in) const {
  MPCNN_CHECK(in.rank() == 4, "Pool2D expects NCHW, got " << in.str());
  MPCNN_CHECK(in[2] >= kernel_ && in[3] >= kernel_,
              "pool window larger than input " << in.str());
  return Shape{in[0], in[1], pooled_extent(in[2], kernel_, stride_),
               pooled_extent(in[3], kernel_, stride_)};
}

Tensor Pool2D::pool(const Tensor& in, Dim* argmax, float* counts) const {
  const Shape out_shape = output_shape(in.shape());
  Tensor out(out_shape);
  const Dim N = in.shape()[0], C = in.shape()[1], H = in.shape()[2],
            W = in.shape()[3];
  const Dim OH = out_shape[2], OW = out_shape[3];
  Dim oi = 0;
  for (Dim n = 0; n < N; ++n) {
    for (Dim c = 0; c < C; ++c) {
      const float* plane = in.data() + (n * C + c) * H * W;
      for (Dim oh = 0; oh < OH; ++oh) {
        const Dim h0 = oh * stride_;
        const Dim h1 = std::min(h0 + kernel_, H);
        for (Dim ow = 0; ow < OW; ++ow, ++oi) {
          const Dim w0 = ow * stride_;
          const Dim w1 = std::min(w0 + kernel_, W);
          if (mode_ == PoolMode::kMax) {
            float best = -std::numeric_limits<float>::infinity();
            Dim best_idx = h0 * W + w0;
            for (Dim h = h0; h < h1; ++h) {
              for (Dim w = w0; w < w1; ++w) {
                const float v = plane[h * W + w];
                if (v > best) {
                  best = v;
                  best_idx = h * W + w;
                }
              }
            }
            out[oi] = best;
            if (argmax != nullptr) argmax[oi] = (n * C + c) * H * W + best_idx;
          } else {
            float acc = 0.0f;
            for (Dim h = h0; h < h1; ++h)
              for (Dim w = w0; w < w1; ++w) acc += plane[h * W + w];
            const float count = static_cast<float>((h1 - h0) * (w1 - w0));
            out[oi] = acc / count;
            if (counts != nullptr) counts[oi] = count;
          }
        }
      }
    }
  }
  return out;
}

Tensor Pool2D::infer(Tensor in) const { return pool(in, nullptr, nullptr); }

Tensor Pool2D::forward(const Tensor& in) {
  in_shape_ = in.shape();
  const auto outputs =
      static_cast<std::size_t>(output_shape(in_shape_).numel());
  if (mode_ == PoolMode::kMax) {
    argmax_.assign(outputs, 0);
    return pool(in, argmax_.data(), nullptr);
  }
  counts_.assign(outputs, 0.0f);
  return pool(in, nullptr, counts_.data());
}

Tensor Pool2D::backward(const Tensor& grad_out) {
  Tensor grad_in(in_shape_);
  const Shape out_shape = output_shape(in_shape_);
  MPCNN_CHECK(grad_out.shape() == out_shape, "Pool2D backward shape");
  if (mode_ == PoolMode::kMax) {
    for (Dim oi = 0; oi < grad_out.numel(); ++oi) {
      grad_in[argmax_[static_cast<std::size_t>(oi)]] += grad_out[oi];
    }
    return grad_in;
  }
  const Dim N = in_shape_[0], C = in_shape_[1], H = in_shape_[2],
            W = in_shape_[3];
  const Dim OH = out_shape[2], OW = out_shape[3];
  Dim oi = 0;
  for (Dim n = 0; n < N; ++n) {
    for (Dim c = 0; c < C; ++c) {
      float* plane = grad_in.data() + (n * C + c) * H * W;
      for (Dim oh = 0; oh < OH; ++oh) {
        const Dim h0 = oh * stride_;
        const Dim h1 = std::min(h0 + kernel_, H);
        for (Dim ow = 0; ow < OW; ++ow, ++oi) {
          const Dim w0 = ow * stride_;
          const Dim w1 = std::min(w0 + kernel_, W);
          const float g =
              grad_out[oi] / counts_[static_cast<std::size_t>(oi)];
          for (Dim h = h0; h < h1; ++h)
            for (Dim w = w0; w < w1; ++w) plane[h * W + w] += g;
        }
      }
    }
  }
  return grad_in;
}

std::string Pool2D::name() const {
  std::ostringstream os;
  os << (mode_ == PoolMode::kMax ? "maxpool" : "avgpool") << kernel_ << "/s"
     << stride_;
  return os.str();
}

Shape GlobalAvgPool::output_shape(const Shape& in) const {
  MPCNN_CHECK(in.rank() == 4, "GlobalAvgPool expects NCHW");
  return Shape{in[0], in[1], 1, 1};
}

Tensor GlobalAvgPool::run(const Tensor& in) const {
  const Dim N = in.shape()[0], C = in.shape()[1],
            HW = in.shape()[2] * in.shape()[3];
  Tensor out(output_shape(in.shape()));
  for (Dim n = 0; n < N; ++n) {
    for (Dim c = 0; c < C; ++c) {
      const float* plane = in.data() + (n * C + c) * HW;
      float acc = 0.0f;
      for (Dim i = 0; i < HW; ++i) acc += plane[i];
      out[n * C + c] = acc / static_cast<float>(HW);
    }
  }
  return out;
}

Tensor GlobalAvgPool::forward(const Tensor& in) {
  in_shape_ = in.shape();
  return run(in);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const Dim N = in_shape_[0], C = in_shape_[1],
            HW = in_shape_[2] * in_shape_[3];
  Tensor grad_in(in_shape_);
  for (Dim n = 0; n < N; ++n) {
    for (Dim c = 0; c < C; ++c) {
      const float g = grad_out[n * C + c] / static_cast<float>(HW);
      float* plane = grad_in.data() + (n * C + c) * HW;
      for (Dim i = 0; i < HW; ++i) plane[i] = g;
    }
  }
  return grad_in;
}

}  // namespace mpcnn::nn
