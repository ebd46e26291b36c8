// Host-side latency measurement (§III-C).
//
// The paper measures the Caffe models' per-image inference time on the
// ARM host.  Here the latency of the *full-width* Table III topologies is
// measured on the build machine and fed to the pipeline simulator; the
// accuracy side of each model comes from its trained width-scaled variant
// (substitution documented in DESIGN.md).
#pragma once

#include "nn/net.hpp"

namespace mpcnn::core {

/// Measured host characteristics of one float model.
struct HostProfile {
  std::string model_name;
  double seconds_per_image = 0.0;
  double images_per_second = 0.0;
  Dim measured_images = 0;
};

/// Measures the per-image latency of `net.predict` — the call the host
/// leg serves — over `images` (NCHW batch, one image per call) repeated
/// `reps` times; returns the per-image median-of-means profile.
HostProfile measure_host_latency(nn::Net& net, const Tensor& images,
                                 int reps = 3);

}  // namespace mpcnn::core
