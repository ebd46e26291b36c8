// The multi-precision CNN system (the paper's contribution, Fig. 1):
// BNN-on-FPGA for every image, float-CNN-on-host for the subset the DMU
// distrusts, both running in parallel batch-by-batch.
#pragma once

#include <optional>

#include "bnn/compile.hpp"
#include "core/dmu.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "finn/dataflow.hpp"
#include "nn/net.hpp"

namespace mpcnn::core {

/// Runtime configuration of the cascade.
struct MultiPrecisionConfig {
  float dmu_threshold = 0.84f;  ///< Table II operating point
  Dim batch_size = 100;         ///< images per FPGA pass
};

/// Everything Table V reports for one cascade run, plus the analytic
/// expectations of Eqs. (1)–(2) for comparison.
struct MultiPrecisionReport {
  // Accuracy
  double bnn_accuracy = 0.0;        ///< BNN alone on this set
  double system_accuracy = 0.0;     ///< the cascade
  double host_subset_accuracy = 0.0;  ///< host on the rerun subset only
  // Gating
  double rerun_ratio = 0.0;      ///< share of images re-inferred
  double rerun_err_ratio = 0.0;  ///< BNN-correct images that were rerun
  DmuConfusion confusion;        ///< vs. the BNN truth on this set
  // Throughput (simulated heterogeneous timing)
  PipelineTiming timing;
  double images_per_second = 0.0;
  double bnn_images_per_second = 0.0;   ///< fabric alone at this batch
  double host_images_per_second = 0.0;  ///< host alone
  // Analytic models
  double analytic_fps = 0.0;       ///< Eq. (1)
  double analytic_accuracy = 0.0;  ///< Eq. (2)
  Dim images = 0;
};

/// The assembled heterogeneous system.  Non-owning views: the caller
/// keeps the networks, design and DMU alive.
class MultiPrecisionSystem {
 public:
  MultiPrecisionSystem(const bnn::CompiledBnn& bnn_net,
                       const finn::FinnDesign& design, nn::Net& host_net,
                       double host_seconds_per_image, const Dmu& dmu,
                       MultiPrecisionConfig config = {});

  /// Classifies the whole dataset through the cascade.  Labels are
  /// computed functionally (real BNN + real host inference); timing comes
  /// from the FPGA cycle model plus the measured host latency, replayed
  /// through the batched pipeline simulation.
  MultiPrecisionReport run(const data::Dataset& test) const;

  /// Per-image cascade decision without timing (used by examples).
  struct Decision {
    int bnn_label = 0;
    float confidence = 0.0f;
    bool rerun = false;
    int final_label = 0;
  };
  Decision classify_one(const Tensor& image) const;

  const MultiPrecisionConfig& config() const { return config_; }

  /// Optional: the host model's accuracy on the full test set (Table IV).
  /// When set, Eq. (2) is evaluated with it — reproducing the paper's
  /// remark that the analytic accuracy overestimates because the rerun
  /// subset is hard.  Unset, Eq. (2) uses the measured subset accuracy.
  void set_host_full_accuracy(double accuracy) {
    host_full_accuracy_ = accuracy;
  }

 private:
  const bnn::CompiledBnn& bnn_;
  const finn::FinnDesign& design_;
  nn::Net& host_;
  double host_seconds_per_image_;
  const Dmu& dmu_;
  MultiPrecisionConfig config_;
  double host_full_accuracy_ = 0.0;
};

}  // namespace mpcnn::core
