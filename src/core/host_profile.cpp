#include "core/host_profile.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "tensor/error.hpp"

namespace mpcnn::core {

HostProfile measure_host_latency(nn::Net& net, const Tensor& images,
                                 int reps) {
  MPCNN_CHECK(images.shape().rank() == 4 && images.shape()[0] > 0,
              "latency measurement needs a non-empty NCHW batch");
  MPCNN_CHECK(reps >= 1, "reps " << reps);
  net.set_training(false);
  const Dim n = images.shape()[0];
  // Warm-up pass so first-touch allocation does not pollute the timing.
  (void)net.predict(images.slice_batch(0));

  std::vector<double> per_rep;
  per_rep.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (Dim i = 0; i < n; ++i) {
      (void)net.predict(images.slice_batch(i));
    }
    const auto end = std::chrono::steady_clock::now();
    per_rep.push_back(std::chrono::duration<double>(end - start).count() /
                      static_cast<double>(n));
  }
  std::sort(per_rep.begin(), per_rep.end());
  HostProfile profile;
  profile.model_name = net.name();
  profile.seconds_per_image = per_rep[per_rep.size() / 2];
  profile.images_per_second = 1.0 / profile.seconds_per_image;
  profile.measured_images = n * reps;
  return profile;
}

}  // namespace mpcnn::core
