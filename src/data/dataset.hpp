// Labelled image dataset container.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace mpcnn::data {

/// CIFAR-10 class names, used for reporting.
inline constexpr std::array<const char*, 10> kCifarClasses = {
    "airplane", "automobile", "bird",  "cat",  "deer",
    "dog",      "frog",       "horse", "ship", "truck"};

/// A labelled set of NCHW images with values in [0, 1].
struct Dataset {
  Tensor images{Shape{0, 3, 32, 32}};
  std::vector<int> labels;

  Dim size() const { return images.shape()[0]; }
  int num_classes() const { return 10; }

  /// Batched view: copies items [start, start+n) into a fresh tensor.
  Tensor batch(Dim start, Dim n) const;

  /// New dataset containing exactly the given items, in order.
  Dataset subset(const std::vector<Dim>& indices) const;

  /// In-place deterministic shuffle.
  void shuffle(Rng& rng);

  /// Per-class item counts (for balance checks).
  std::vector<Dim> class_histogram() const;
};

}  // namespace mpcnn::data
