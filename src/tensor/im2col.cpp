#include "tensor/im2col.hpp"

#include <algorithm>
#include <vector>

#include "core/threadpool.hpp"
#include "tensor/error.hpp"

namespace mpcnn {

void im2col(const ConvGeometry& g, const float* im, float* col) {
  MPCNN_CHECK(g.valid(), "invalid conv geometry");
  const std::int64_t OH = g.out_h(), OW = g.out_w();
  const std::int64_t positions = OH * OW;
  // Channel c owns patch-matrix rows [c·K², (c+1)·K²) — disjoint output
  // regions, pure copies, so the fan-out is race-free and deterministic.
  core::parallel_for(0, g.in_channels, 1, [&](std::int64_t c0,
                                              std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      const float* chan = im + c * g.in_h * g.in_w;
      std::int64_t row = c * g.kernel * g.kernel;
      for (std::int64_t kh = 0; kh < g.kernel; ++kh) {
        for (std::int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
          // Output columns [lo, hi) read input columns
          // iw = ow·stride + kw − pad inside [0, in_w); the columns
          // outside that range are padding.
          const std::int64_t first = g.pad - kw;
          const std::int64_t last = g.in_w - 1 + g.pad - kw;
          const std::int64_t lo = std::min(
              OW, first > 0 ? (first + g.stride - 1) / g.stride : 0);
          const std::int64_t hi = std::max(
              lo, last < 0 ? 0 : std::min(OW, last / g.stride + 1));
          float* out_row = col + row * positions;
          for (std::int64_t oh = 0; oh < OH; ++oh) {
            float* dst = out_row + oh * OW;
            const std::int64_t ih = oh * g.stride + kh - g.pad;
            if (ih < 0 || ih >= g.in_h || lo == hi) {
              std::fill_n(dst, OW, 0.0f);
              continue;
            }
            const float* src = chan + ih * g.in_w + lo * g.stride + kw - g.pad;
            std::fill_n(dst, lo, 0.0f);
            if (g.stride == 1) {
              std::copy_n(src, hi - lo, dst + lo);
            } else {
              for (std::int64_t ow = lo; ow < hi; ++ow) {
                dst[ow] = src[(ow - lo) * g.stride];
              }
            }
            std::fill(dst + hi, dst + OW, 0.0f);
          }
        }
      }
    }
  });
}

const float* patch_matrix(const ConvGeometry& g, const float* im) {
  if (g.kernel == 1 && g.stride == 1 && g.pad == 0) return im;
  thread_local std::vector<float> scratch;
  const auto size = static_cast<std::size_t>(g.patch_size() * g.positions());
  if (scratch.size() < size) scratch.resize(size);
  im2col(g, im, scratch.data());
  return scratch.data();
}

void col2im(const ConvGeometry& g, const float* col, float* im) {
  MPCNN_CHECK(g.valid(), "invalid conv geometry");
  const std::int64_t OH = g.out_h(), OW = g.out_w();
  const std::int64_t positions = OH * OW;
  // The scatter-add of channel c lands only inside image channel c, so
  // chunking over channels keeps writers disjoint; within a channel the
  // (kh, kw, oh, ow) accumulation order matches the serial kernel.
  core::parallel_for(0, g.in_channels, 1, [&](std::int64_t c0,
                                              std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      float* chan = im + c * g.in_h * g.in_w;
      std::int64_t row = c * g.kernel * g.kernel;
      for (std::int64_t kh = 0; kh < g.kernel; ++kh) {
        for (std::int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
          const float* in_row = col + row * positions;
          for (std::int64_t oh = 0; oh < OH; ++oh) {
            const std::int64_t ih = oh * g.stride + kh - g.pad;
            if (ih < 0 || ih >= g.in_h) continue;
            float* out_row = chan + ih * g.in_w;
            for (std::int64_t ow = 0; ow < OW; ++ow) {
              const std::int64_t iw = ow * g.stride + kw - g.pad;
              if (iw >= 0 && iw < g.in_w) out_row[iw] += in_row[oh * OW + ow];
            }
          }
        }
      }
    }
  });
}

}  // namespace mpcnn
