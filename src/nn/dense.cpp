#include "nn/dense.hpp"

#include <cmath>
#include <sstream>

#include "core/threadpool.hpp"
#include "tensor/gemm.hpp"

namespace mpcnn::nn {

Dense::Dense(Dim in_features, Dim out_features, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      weight_("dense.weight", Shape{out_features, in_features}),
      bias_("dense.bias", Shape{bias ? out_features : 0}) {
  MPCNN_CHECK(in_features > 0 && out_features > 0, "bad Dense config");
}

void Dense::init(Rng& rng) {
  weight_.value.fill_normal(
      rng, 0.0f, std::sqrt(2.0f / static_cast<float>(in_features_)));
  if (has_bias_) bias_.value.fill(0.0f);
}

Shape Dense::output_shape(const Shape& in) const {
  MPCNN_CHECK(in.rank() >= 2, "Dense expects batched input");
  MPCNN_CHECK(in.numel() / in[0] == in_features_,
              "Dense input features " << in.numel() / in[0] << " != "
                                      << in_features_);
  return Shape{in[0], out_features_};
}

std::int64_t Dense::macs(const Shape& in) const {
  (void)in;
  return in_features_ * out_features_;
}

Tensor Dense::run(const Tensor& in) const {
  const Shape out_shape = output_shape(in.shape());
  const Dim N = in.shape()[0];
  Tensor out(out_shape);
  // out (N x OD) = x (N x ID) * W^T (ID x OD), reading the input in its
  // own (row-major, hence already flattened) storage.  The batch
  // dimension is M of the gemm, so the whole forward is already
  // batch-parallel on the shared pool; the bias fan-out below chunks the
  // same rows.
  gemm_bt(N, out_features_, in_features_, 1.0f, in.data(),
          weight_.value.data(), 0.0f, out.data());
  if (has_bias_) {
    core::parallel_for(0, N, 8, [&](Dim n0, Dim n1) {
      for (Dim n = n0; n < n1; ++n)
        for (Dim o = 0; o < out_features_; ++o)
          out[n * out_features_ + o] += bias_.value[o];
    });
  }
  return out;
}

Tensor Dense::forward(const Tensor& in) {
  orig_in_shape_ = in.shape();
  cached_in_ = in.reshaped(Shape{in.shape()[0], in_features_});
  return run(cached_in_);
}

Tensor Dense::backward(const Tensor& grad_out) {
  const Dim N = cached_in_.shape()[0];
  MPCNN_CHECK(grad_out.shape() == Shape({N, out_features_}),
              "Dense backward shape " << grad_out.shape().str());
  // dW (OD x ID) += dOut^T (OD x N) * x (N x ID); gemm_at is parallel
  // over the OD rows of dW, which are independent, so the batch
  // reduction order per weight stays fixed.
  gemm_at(out_features_, in_features_, N, 1.0f, grad_out.data(),
          cached_in_.data(), 1.0f, weight_.grad.data());
  if (has_bias_) {
    // Each chunk owns a slice of output features; the n-sum per feature
    // runs ascending inside one chunk — deterministic and race-free.
    core::parallel_for(0, out_features_, 32, [&](Dim o0, Dim o1) {
      for (Dim n = 0; n < N; ++n)
        for (Dim o = o0; o < o1; ++o)
          bias_.grad[o] += grad_out[n * out_features_ + o];
    });
  }
  // dx (N x ID) = dOut (N x OD) * W (OD x ID)
  Tensor grad_in(Shape{N, in_features_});
  gemm(N, in_features_, out_features_, 1.0f, grad_out.data(),
       weight_.value.data(), 0.0f, grad_in.data());
  return grad_in.reshaped(orig_in_shape_);
}

std::vector<Param*> Dense::params() {
  std::vector<Param*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

std::string Dense::name() const {
  std::ostringstream os;
  os << "FC-" << out_features_;
  return os.str();
}

}  // namespace mpcnn::nn
