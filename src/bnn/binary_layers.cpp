#include "bnn/binary_layers.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "bnn/bitpack.hpp"
#include "tensor/gemm.hpp"

namespace mpcnn::bnn {
namespace {

// The ±1 forward weights of the shadow weights.
Tensor signs(const Tensor& shadow) {
  Tensor binary(shadow.shape());
  for (Dim i = 0; i < shadow.numel(); ++i) {
    binary[i] = sign_bit(shadow[i]) ? 1.0f : -1.0f;
  }
  return binary;
}

// Clip shadow weights to [-1, 1] (standard BNN training) and keep the ±1
// forward weights for backward.  sign_bit(clamp(w, -1, 1)) ==
// sign_bit(w) for every float, -0.0 and NaN included, so the clip never
// changes what infer() computes.
void refresh_binary(Tensor& shadow, Tensor& binary) {
  for (Dim i = 0; i < shadow.numel(); ++i) {
    shadow[i] = std::clamp(shadow[i], -1.0f, 1.0f);
  }
  binary = signs(shadow);
}

}  // namespace

QuantizeInput::QuantizeInput(int bits) : bits_(bits), levels_((1 << bits) - 1) {
  MPCNN_CHECK(bits >= 1 && bits <= 16, "QuantizeInput bits " << bits);
}

Tensor QuantizeInput::infer(Tensor in) const {
  const float levels = static_cast<float>(levels_);
  for (Dim i = 0; i < in.numel(); ++i) {
    const float clamped = std::clamp(in[i], 0.0f, 1.0f);
    in[i] = std::round(clamped * levels) / levels;
  }
  return in;
}

std::string QuantizeInput::name() const {
  std::ostringstream os;
  os << "quantize" << bits_;
  return os.str();
}

QuantActive::QuantActive(int bits)
    : bits_(bits), levels_(1 << bits) {
  MPCNN_CHECK(bits >= 1 && bits <= 8, "QuantActive bits " << bits);
}

Tensor QuantActive::infer(Tensor in) const {
  const float half_levels = static_cast<float>(levels_ - 1) / 2.0f;
  for (Dim i = 0; i < in.numel(); ++i) {
    const float clamped = std::clamp(in[i], -1.0f, 1.0f);
    const float q = std::round((clamped + 1.0f) * half_levels);
    in[i] = q / half_levels - 1.0f;
  }
  return in;
}

Tensor QuantActive::forward(const Tensor& in) {
  cached_in_ = in;
  return infer(in);
}

Tensor QuantActive::backward(const Tensor& grad_out) {
  MPCNN_CHECK(grad_out.same_shape(cached_in_),
              "QuantActive backward before forward");
  Tensor grad_in = grad_out;
  for (Dim i = 0; i < grad_in.numel(); ++i) {
    if (std::fabs(cached_in_[i]) > 1.0f) grad_in[i] = 0.0f;
  }
  return grad_in;
}

std::string QuantActive::name() const {
  std::ostringstream os;
  os << "quantact" << bits_;
  return os.str();
}

std::vector<float> QuantActive::level_values() const {
  std::vector<float> values(static_cast<std::size_t>(levels_));
  const float half_levels = static_cast<float>(levels_ - 1) / 2.0f;
  for (int q = 0; q < levels_; ++q) {
    values[static_cast<std::size_t>(q)] =
        static_cast<float>(q) / half_levels - 1.0f;
  }
  return values;
}

Tensor BinActive::infer(Tensor in) const {
  for (Dim i = 0; i < in.numel(); ++i) {
    in[i] = sign_bit(in[i]) ? 1.0f : -1.0f;
  }
  return in;
}

Tensor BinActive::forward(const Tensor& in) {
  cached_in_ = in;
  return infer(in);
}

Tensor BinActive::backward(const Tensor& grad_out) {
  MPCNN_CHECK(grad_out.same_shape(cached_in_),
              "BinActive backward before forward");
  Tensor grad_in = grad_out;
  for (Dim i = 0; i < grad_in.numel(); ++i) {
    if (std::fabs(cached_in_[i]) > 1.0f) grad_in[i] = 0.0f;
  }
  return grad_in;
}

BinConv2D::BinConv2D(Dim in_channels, Dim out_channels, Dim kernel)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      weight_("binconv.weight",
              Shape{out_channels, in_channels * kernel * kernel}) {
  MPCNN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
              "bad BinConv2D config");
}

void BinConv2D::init(Rng& rng) {
  // Uniform in [-1, 1]: the shadow weights live in that interval anyway.
  weight_.value.fill_uniform(rng, -1.0f, 1.0f);
}

ConvGeometry BinConv2D::geometry(const Shape& in) const {
  MPCNN_CHECK(in.rank() == 4, "BinConv2D expects NCHW, got " << in.str());
  MPCNN_CHECK(in[1] == in_channels_, "BinConv2D channel mismatch");
  ConvGeometry g;
  g.in_channels = in_channels_;
  g.in_h = in[2];
  g.in_w = in[3];
  g.kernel = kernel_;
  g.stride = 1;
  g.pad = 0;
  MPCNN_CHECK(g.valid(), "degenerate BinConv2D for input " << in.str());
  return g;
}

Shape BinConv2D::output_shape(const Shape& in) const {
  const ConvGeometry g = geometry(in);
  return Shape{in[0], out_channels_, g.out_h(), g.out_w()};
}

std::int64_t BinConv2D::macs(const Shape& in) const {
  const ConvGeometry g = geometry(in);
  return out_channels_ * g.patch_size() * g.positions();
}

Tensor BinConv2D::infer(Tensor in) const {
  return run(in, signs(weight_.value));
}

Tensor BinConv2D::run(const Tensor& in, const Tensor& binary) const {
  const ConvGeometry g = geometry(in.shape());
  const Dim N = in.shape()[0];
  const Dim patch = g.patch_size(), pos = g.positions();
  Tensor out(output_shape(in.shape()));
  const Dim in_per = in.numel() / N;
  const Dim out_per = out.numel() / N;
  for (Dim n = 0; n < N; ++n) {
    gemm(out_channels_, pos, patch, 1.0f, binary.data(),
         patch_matrix(g, in.data() + n * in_per), 0.0f,
         out.data() + n * out_per);
  }
  return out;
}

Tensor BinConv2D::forward(const Tensor& in) {
  refresh_binary(weight_.value, binary_weight_);
  cached_in_ = in;
  return run(cached_in_, binary_weight_);
}

Tensor BinConv2D::backward(const Tensor& grad_out) {
  const ConvGeometry g = geometry(cached_in_.shape());
  const Dim N = cached_in_.shape()[0];
  const Dim patch = g.patch_size(), pos = g.positions();
  Tensor grad_in(cached_in_.shape());
  dcol_scratch_.resize(static_cast<std::size_t>(patch * pos));
  float* dcol = dcol_scratch_.data();
  const Dim in_per = cached_in_.numel() / N;
  const Dim out_per = grad_out.numel() / N;
  for (Dim n = 0; n < N; ++n) {
    const float* go = grad_out.data() + n * out_per;
    const float* col = patch_matrix(g, cached_in_.data() + n * in_per);
    // STE: gradient w.r.t. the binary weights lands on the shadow weights.
    gemm_bt(out_channels_, patch, pos, 1.0f, go, col, 1.0f,
            weight_.grad.data());
    gemm_at(patch, pos, out_channels_, 1.0f, binary_weight_.data(), go, 0.0f,
            dcol);
    col2im(g, dcol, grad_in.data() + n * in_per);
  }
  return grad_in;
}

std::string BinConv2D::name() const {
  std::ostringstream os;
  os << kernel_ << "x" << kernel_ << "-binconv-" << out_channels_;
  return os.str();
}

BinDense::BinDense(Dim in_features, Dim out_features)
    : in_features_(in_features),
      out_features_(out_features),
      weight_("bindense.weight", Shape{out_features, in_features}) {
  MPCNN_CHECK(in_features > 0 && out_features > 0, "bad BinDense config");
}

void BinDense::init(Rng& rng) {
  weight_.value.fill_uniform(rng, -1.0f, 1.0f);
}

Shape BinDense::output_shape(const Shape& in) const {
  MPCNN_CHECK(in.rank() >= 2, "BinDense expects batched input");
  MPCNN_CHECK(in.numel() / in[0] == in_features_,
              "BinDense input features " << in.numel() / in[0] << " != "
                                         << in_features_);
  return Shape{in[0], out_features_};
}

std::int64_t BinDense::macs(const Shape& in) const {
  (void)in;
  return in_features_ * out_features_;
}

Tensor BinDense::infer(Tensor in) const {
  return run(in, signs(weight_.value));
}

Tensor BinDense::run(const Tensor& in, const Tensor& binary) const {
  const Shape out_shape = output_shape(in.shape());
  Tensor out(out_shape);
  gemm_bt(out_shape[0], out_features_, in_features_, 1.0f, in.data(),
          binary.data(), 0.0f, out.data());
  return out;
}

Tensor BinDense::forward(const Tensor& in) {
  refresh_binary(weight_.value, binary_weight_);
  orig_in_shape_ = in.shape();
  cached_in_ = in.reshaped(Shape{in.shape()[0], in_features_});
  return run(cached_in_, binary_weight_);
}

Tensor BinDense::backward(const Tensor& grad_out) {
  const Dim N = cached_in_.shape()[0];
  MPCNN_CHECK(grad_out.shape() == Shape({N, out_features_}),
              "BinDense backward shape");
  gemm_at(out_features_, in_features_, N, 1.0f, grad_out.data(),
          cached_in_.data(), 1.0f, weight_.grad.data());
  Tensor grad_in(Shape{N, in_features_});
  gemm(N, in_features_, out_features_, 1.0f, grad_out.data(),
       binary_weight_.data(), 0.0f, grad_in.data());
  return grad_in.reshaped(orig_in_shape_);
}

std::string BinDense::name() const {
  std::ostringstream os;
  os << "bin-FC-" << out_features_;
  return os.str();
}

}  // namespace mpcnn::bnn
