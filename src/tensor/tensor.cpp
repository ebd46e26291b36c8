#include "tensor/tensor.hpp"

#include <algorithm>
#include <numeric>

namespace mpcnn {

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_.numel()), 0.0f) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  MPCNN_CHECK(static_cast<Dim>(data_.size()) == shape_.numel(),
              "data size " << data_.size() << " != shape numel "
                           << shape_.numel());
}

float& Tensor::at(Dim i) {
  MPCNN_CHECK(i >= 0 && i < numel(), "index " << i << " out of " << numel());
  return data_[static_cast<std::size_t>(i)];
}

float Tensor::at(Dim i) const {
  MPCNN_CHECK(i >= 0 && i < numel(), "index " << i << " out of " << numel());
  return data_[static_cast<std::size_t>(i)];
}

float& Tensor::at4(Dim n, Dim c, Dim h, Dim w) {
  MPCNN_CHECK(shape_.rank() == 4, "at4 on rank-" << shape_.rank());
  const Dim C = shape_[1], H = shape_[2], W = shape_[3];
  return data_[static_cast<std::size_t>(((n * C + c) * H + h) * W + w)];
}

float Tensor::at4(Dim n, Dim c, Dim h, Dim w) const {
  MPCNN_CHECK(shape_.rank() == 4, "at4 on rank-" << shape_.rank());
  const Dim C = shape_[1], H = shape_[2], W = shape_[3];
  return data_[static_cast<std::size_t>(((n * C + c) * H + h) * W + w)];
}

Tensor Tensor::reshaped(Shape new_shape) const& {
  MPCNN_CHECK(new_shape.numel() == numel(),
              "reshape " << shape_.str() << " -> " << new_shape.str());
  return Tensor(std::move(new_shape), data_);
}

Tensor Tensor::reshaped(Shape new_shape) && {
  MPCNN_CHECK(new_shape.numel() == numel(),
              "reshape " << shape_.str() << " -> " << new_shape.str());
  return Tensor(std::move(new_shape), std::move(data_));
}

Tensor Tensor::slice_batch(Dim n) const {
  MPCNN_CHECK(shape_.rank() >= 1, "slice_batch on rank-0");
  const Dim batch = shape_[0];
  MPCNN_CHECK(n >= 0 && n < batch, "batch index " << n << " of " << batch);
  const Dim per = numel() / batch;
  std::vector<Dim> dims = shape_.dims();
  dims[0] = 1;
  std::vector<float> out(static_cast<std::size_t>(per));
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(n * per),
              static_cast<std::ptrdiff_t>(per), out.begin());
  return Tensor(Shape(dims), std::move(out));
}

void Tensor::set_batch(Dim n, const Tensor& src, Dim src_n) {
  MPCNN_CHECK(shape_.rank() >= 1 && src.shape_.rank() >= 1,
              "set_batch needs batched tensors");
  const Dim per = numel() / shape_[0];
  const Dim src_per = src.numel() / src.shape_[0];
  MPCNN_CHECK(per == src_per, "per-item size mismatch: " << per << " vs "
                                                         << src_per);
  MPCNN_CHECK(n >= 0 && n < shape_[0], "dst batch index " << n);
  MPCNN_CHECK(src_n >= 0 && src_n < src.shape_[0], "src batch index "
                                                       << src_n);
  std::copy_n(src.data_.begin() + static_cast<std::ptrdiff_t>(src_n * per),
              static_cast<std::ptrdiff_t>(per),
              data_.begin() + static_cast<std::ptrdiff_t>(n * per));
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::fill_normal(Rng& rng, float mean, float stddev) {
  for (float& v : data_) v = static_cast<float>(rng.normal(mean, stddev));
}

void Tensor::fill_uniform(Rng& rng, float lo, float hi) {
  for (float& v : data_) v = static_cast<float>(rng.uniform(lo, hi));
}

Dim Tensor::argmax() const {
  MPCNN_CHECK(!data_.empty(), "argmax of empty tensor");
  return static_cast<Dim>(std::distance(
      data_.begin(), std::max_element(data_.begin(), data_.end())));
}

float Tensor::max() const {
  MPCNN_CHECK(!data_.empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::min() const {
  MPCNN_CHECK(!data_.empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0f);
}

float Tensor::mean() const {
  MPCNN_CHECK(!data_.empty(), "mean of empty tensor");
  return sum() / static_cast<float>(data_.size());
}

void Tensor::scale(float alpha) {
  for (float& v : data_) v *= alpha;
}

}  // namespace mpcnn
