// Dense float tensor, the common currency of the float-CNN substrate.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/error.hpp"
#include "tensor/rng.hpp"
#include "tensor/shape.hpp"

namespace mpcnn {

/// Dense row-major float tensor.  Value type — copy is deep; moves are
/// cheap.  Image batches use NCHW layout.
class Tensor {
 public:
  /// Empty tensor: shape (0), no elements.
  Tensor() : shape_({0}) {}

  /// Zero-initialised tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape with explicit contents (size must match).
  Tensor(Shape shape, std::vector<float> data);

  const Shape& shape() const { return shape_; }
  /// Element count: the storage size, which the constructors keep equal
  /// to shape().numel() (a moved-from tensor reports 0).
  Dim numel() const { return static_cast<Dim>(data_.size()); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Flat element access with bounds check.
  float& at(Dim i);
  float at(Dim i) const;

  /// Unchecked flat access for hot loops.
  float& operator[](Dim i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](Dim i) const { return data_[static_cast<std::size_t>(i)]; }

  /// 4-D NCHW access (checked rank, unchecked bounds in release builds).
  float& at4(Dim n, Dim c, Dim h, Dim w);
  float at4(Dim n, Dim c, Dim h, Dim w) const;

  /// Returns a tensor with the same data and a new shape of equal numel.
  Tensor reshaped(Shape new_shape) const&;
  /// Same, handing this tensor's storage over instead of copying it.
  Tensor reshaped(Shape new_shape) &&;

  /// Extracts item `n` of the batch dimension as a rank-(r-1)... kept as
  /// rank-r with leading dim 1 for layer compatibility.
  Tensor slice_batch(Dim n) const;

  /// Copies batch item `src_n` of `src` into batch item `n` of *this.
  void set_batch(Dim n, const Tensor& src, Dim src_n = 0);

  void fill(float value);

  /// Gaussian fill (in-place), used for weight init.
  void fill_normal(Rng& rng, float mean, float stddev);

  /// Uniform fill in [lo, hi).
  void fill_uniform(Rng& rng, float lo, float hi);

  // --- elementwise / reduction helpers (used across the code base) ---
  Dim argmax() const;
  float max() const;
  float min() const;
  float sum() const;
  float mean() const;

  /// this *= alpha.
  void scale(float alpha);

  bool same_shape(const Tensor& other) const {
    return shape_ == other.shape_;
  }

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace mpcnn
