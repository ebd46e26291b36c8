#include "data/dataset.hpp"

#include <algorithm>

#include "tensor/error.hpp"

namespace mpcnn::data {

Tensor Dataset::batch(Dim start, Dim n) const {
  MPCNN_CHECK(start >= 0 && n >= 0 && start + n <= size(),
              "batch [" << start << ", " << start + n << ") out of "
                        << size());
  std::vector<Dim> dims = images.shape().dims();
  dims[0] = n;
  Tensor out{Shape(dims)};
  for (Dim i = 0; i < n; ++i) out.set_batch(i, images, start + i);
  return out;
}

Dataset Dataset::subset(const std::vector<Dim>& indices) const {
  std::vector<Dim> dims = images.shape().dims();
  dims[0] = static_cast<Dim>(indices.size());
  Dataset out;
  out.images = Tensor{Shape(dims)};
  out.labels.reserve(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const Dim src = indices[i];
    MPCNN_CHECK(src >= 0 && src < size(), "subset index " << src);
    out.images.set_batch(static_cast<Dim>(i), images, src);
    out.labels.push_back(labels[static_cast<std::size_t>(src)]);
  }
  return out;
}

void Dataset::shuffle(Rng& rng) {
  const std::vector<std::size_t> order =
      rng.permutation(static_cast<std::size_t>(size()));
  std::vector<Dim> idx(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    idx[i] = static_cast<Dim>(order[i]);
  Dataset shuffled = subset(idx);
  images = std::move(shuffled.images);
  labels = std::move(shuffled.labels);
}

std::vector<Dim> Dataset::class_histogram() const {
  std::vector<Dim> hist(static_cast<std::size_t>(num_classes()), 0);
  for (int label : labels) {
    MPCNN_CHECK(label >= 0 && label < num_classes(), "label " << label);
    ++hist[static_cast<std::size_t>(label)];
  }
  return hist;
}

}  // namespace mpcnn::data
