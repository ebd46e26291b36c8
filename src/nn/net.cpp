#include "nn/net.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

#include "nn/activations.hpp"
#include "nn/conv.hpp"

namespace mpcnn::nn {

void Net::init(Rng& rng) {
  for (auto& layer : layers_) layer->init_params(rng);
}

Tensor Net::forward(const Tensor& in) {
  MPCNN_CHECK(!layers_.empty(), "forward through empty net " << name_);
  Tensor x = in;
  for (auto& layer : layers_) x = layer->forward(x);
  return x;
}

Tensor Net::infer(const Tensor& in) const {
  MPCNN_CHECK(!layers_.empty(), "infer through empty net " << name_);
  Tensor x = in;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& layer = *layers_[i];
    const auto* conv = dynamic_cast<const Conv2D*>(&layer);
    if (conv != nullptr && i + 1 < layers_.size() &&
        dynamic_cast<const ReLU*>(layers_[i + 1].get()) != nullptr) {
      x = conv->infer_relu(x);
      ++i;
    } else {
      x = layer.infer(std::move(x));
    }
  }
  return x;
}

Tensor Net::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Param*> Net::params() {
  std::vector<Param*> all;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) all.push_back(p);
  }
  return all;
}

std::int64_t Net::num_params() const {
  std::int64_t n = 0;
  for (const auto& layer : layers_) {
    for (Param* p : const_cast<Layer&>(*layer).params()) {
      n += p->value.numel();
    }
  }
  return n;
}

void Net::zero_grads() {
  for (Param* p : params()) p->grad.fill(0.0f);
}

void Net::set_training(bool training) {
  for (auto& layer : layers_) layer->set_training(training);
}

std::vector<int> Net::predict(const Tensor& batch) {
  const Tensor out = infer(batch);
  MPCNN_CHECK(out.shape().rank() >= 2, "predict expects batched scores");
  const Dim N = out.shape()[0];
  const Dim C = out.numel() / N;
  std::vector<int> labels(static_cast<std::size_t>(N));
  for (Dim n = 0; n < N; ++n) {
    const float* row = out.data() + n * C;
    labels[static_cast<std::size_t>(n)] = static_cast<int>(
        std::distance(row, std::max_element(row, row + C)));
  }
  return labels;
}

float Net::evaluate(const Tensor& images, const std::vector<int>& labels,
                    Dim batch_size) {
  const Dim total = images.shape()[0];
  MPCNN_CHECK(static_cast<Dim>(labels.size()) == total,
              "evaluate label count mismatch");
  MPCNN_CHECK(batch_size > 0, "bad batch size");
  set_training(false);
  Dim correct = 0;
  std::vector<Dim> item_dims = images.shape().dims();
  for (Dim start = 0; start < total; start += batch_size) {
    const Dim n = std::min(batch_size, total - start);
    item_dims[0] = n;
    Tensor batch{Shape(item_dims)};
    for (Dim i = 0; i < n; ++i) batch.set_batch(i, images, start + i);
    const std::vector<int> pred = predict(batch);
    for (Dim i = 0; i < n; ++i) {
      if (pred[static_cast<std::size_t>(i)] ==
          labels[static_cast<std::size_t>(start + i)]) {
        ++correct;
      }
    }
  }
  return static_cast<float>(correct) / static_cast<float>(total);
}

std::int64_t Net::total_macs() const {
  std::int64_t total = 0;
  Shape shape = input_shape_;
  for (const auto& layer : layers_) {
    total += layer->macs(shape);
    shape = layer->output_shape(shape);
  }
  return total;
}

Shape Net::output_shape() const {
  Shape shape = input_shape_;
  for (const auto& layer : layers_) shape = layer->output_shape(shape);
  return shape;
}

std::string Net::summary() const {
  std::ostringstream os;
  os << "Net '" << name_ << "'  input " << input_shape_.str() << "\n";
  os << std::left << std::setw(24) << "layer" << std::setw(20) << "output"
     << std::setw(12) << "params" << std::setw(14) << "MACs/img"
     << "\n";
  Shape shape = input_shape_;
  std::int64_t total_p = 0, total_m = 0;
  for (const auto& layer : layers_) {
    const std::int64_t m = layer->macs(shape);
    shape = layer->output_shape(shape);
    std::int64_t p = 0;
    for (Param* param : const_cast<Layer&>(*layer).params()) {
      p += param->value.numel();
    }
    os << std::left << std::setw(24) << layer->name() << std::setw(20)
       << shape.str() << std::setw(12) << p << std::setw(14) << m << "\n";
    total_p += p;
    total_m += m;
  }
  os << "total params " << total_p << ", total MACs/img " << total_m << "\n";
  return os.str();
}

}  // namespace mpcnn::nn
