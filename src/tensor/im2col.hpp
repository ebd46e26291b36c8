// im2col / col2im lowering of convolution to matrix multiplication.
//
// This is the same unrolling FINN and Caffe use (Chellapilla et al.); both
// the float conv layer and the binarised conv engine share it.
#pragma once

#include <cstdint>

namespace mpcnn {

/// Geometry of a 2-D convolution.  `pad` is symmetric zero padding.
struct ConvGeometry {
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel = 0;  ///< square K×K kernel
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  std::int64_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::int64_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Rows of the patch matrix == elements per receptive field.
  std::int64_t patch_size() const { return in_channels * kernel * kernel; }
  /// Columns of the patch matrix == number of output positions.
  std::int64_t positions() const { return out_h() * out_w(); }
  /// True if the geometry is internally consistent and non-degenerate.
  bool valid() const {
    return in_channels > 0 && in_h > 0 && in_w > 0 && kernel > 0 &&
           stride > 0 && pad >= 0 && out_h() > 0 && out_w() > 0;
  }
};

/// Expand `im` (C×H×W, single image) into `col` (patch_size × positions),
/// column j holding the receptive field of output position j in
/// channel-major, row-major-within-kernel order.
void im2col(const ConvGeometry& g, const float* im, float* col);

/// The patch matrix of `im` for geometry `g`: `im` itself when the
/// lowering is the identity (1×1 kernel, stride 1, no pad), otherwise
/// im2col into a per-thread scratch buffer that stays valid until this
/// thread's next call.
const float* patch_matrix(const ConvGeometry& g, const float* im);

/// Scatter-add the columns back into an image (gradient of im2col).
/// `im` must be zeroed by the caller.
void col2im(const ConvGeometry& g, const float* col, float* im);

}  // namespace mpcnn
