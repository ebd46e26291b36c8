#include "data/hd_scene.hpp"

#include <algorithm>
#include <vector>

#include "tensor/error.hpp"

namespace mpcnn::data {
namespace {

float clamp01(float v) { return std::clamp(v, 0.0f, 1.0f); }

// Sampling grid of one output axis: output i sits at source coordinate
// origin + (i + 0.5) * scale - 0.5.
struct Axis {
  Dim n;         // output samples
  float origin;  // source coordinate of the window's leading edge
  float scale;   // source pixels per output pixel
};

// The one resampler behind extract_tile and paste_object: bilinearly
// samples the three (src_h × src_w) planes of `src` on the ys × xs grid
// and writes plane c, row y, column x of the output to
// dst[c * dst_plane + y * dst_row + x].  Coordinates are clamped to the
// planes, so a sample past a plane's edge (the outer half-pixel of an
// upscaled window) reads the edge pixels.
//
// A sample's row taps depend only on y and its column taps only on x,
// so both are tabulated once per call: the two source indices and the
// weights (1 - f, f).  The tables evaluate the same float expressions as
// sampling each point on its own would, and the sample loop applies
// them in the same order, so the output is bit-identical to per-point
// evaluation.
void resample(const float* src, Dim src_h, Dim src_w, Axis ys, Axis xs,
              float* dst, Dim dst_row, Dim dst_plane) {
  struct Tap {
    Dim lo, hi;
    float w_lo, w_hi;
  };
  std::vector<Tap> taps(static_cast<std::size_t>(ys.n + xs.n));
  const auto tabulate = [](Tap* out, const Axis& axis, Dim extent) {
    for (Dim i = 0; i < axis.n; ++i) {
      const float s =
          axis.origin + (static_cast<float>(i) + 0.5f) * axis.scale - 0.5f;
      const float c = std::clamp(s, 0.0f, static_cast<float>(extent - 1));
      Tap& tap = out[i];
      tap.lo = static_cast<Dim>(c);
      tap.hi = std::min(tap.lo + 1, extent - 1);
      tap.w_hi = c - static_cast<float>(tap.lo);
      tap.w_lo = 1 - tap.w_hi;
    }
  };
  Tap* const rows = taps.data();
  Tap* const cols = rows + ys.n;
  tabulate(rows, ys, src_h);
  tabulate(cols, xs, src_w);

  for (Dim c = 0; c < 3; ++c) {
    const float* plane = src + c * src_h * src_w;
    for (Dim y = 0; y < ys.n; ++y) {
      const Tap& r = rows[y];
      const float* top = plane + r.lo * src_w;
      const float* bot = plane + r.hi * src_w;
      float* out = dst + c * dst_plane + y * dst_row;
      for (Dim x = 0; x < xs.n; ++x) {
        const Tap& k = cols[x];
        const float t = top[k.lo] * k.w_lo + top[k.hi] * k.w_hi;
        const float b = bot[k.lo] * k.w_lo + bot[k.hi] * k.w_hi;
        out[x] = t * r.w_lo + b * r.w_hi;
      }
    }
  }
}

}  // namespace

SceneGenerator::SceneGenerator(const CifarLikeGenerator& objects,
                               Config config)
    : objects_(objects), config_(config) {
  MPCNN_CHECK(config_.height >= config_.max_object &&
                  config_.width >= config_.max_object,
              "frame smaller than the largest object");
  MPCNN_CHECK(config_.min_object >= 8 &&
                  config_.min_object <= config_.max_object,
              "bad object size range");
}

Scene SceneGenerator::generate(Dim max_objects, Rng& rng) const {
  const Dim H = config_.height, W = config_.width;
  Scene scene;
  scene.frame = Tensor(Shape{1, 3, H, W});
  // Smooth background: low-frequency gradient plus light noise.
  const float base_r = static_cast<float>(rng.uniform(0.2, 0.5));
  const float base_g = static_cast<float>(rng.uniform(0.2, 0.5));
  const float base_b = static_cast<float>(rng.uniform(0.2, 0.5));
  const float gx = static_cast<float>(rng.uniform(-0.15, 0.15));
  const float gy = static_cast<float>(rng.uniform(-0.15, 0.15));
  for (Dim y = 0; y < H; ++y) {
    for (Dim x = 0; x < W; ++x) {
      const float fy = static_cast<float>(y) / static_cast<float>(H);
      const float fx = static_cast<float>(x) / static_cast<float>(W);
      const float noise =
          config_.background_noise * static_cast<float>(rng.normal());
      scene.frame.at4(0, 0, y, x) = clamp01(base_r + gx * fx + gy * fy + noise);
      scene.frame.at4(0, 1, y, x) = clamp01(base_g + gx * fx + gy * fy + noise);
      scene.frame.at4(0, 2, y, x) = clamp01(base_b + gx * fx + gy * fy + noise);
    }
  }

  // Paste objects at random non-overlapping positions, bilinearly
  // upscaled from their 32x32 renders (paste_object).
  for (Dim attempt = 0, placed = 0;
       placed < max_objects && attempt < max_objects * 8; ++attempt) {
    SceneObject object;
    object.label = static_cast<int>(rng.uniform_int(10));
    object.size = config_.min_object +
                  static_cast<Dim>(rng.uniform_int(static_cast<std::uint64_t>(
                      config_.max_object - config_.min_object + 1)));
    object.x = static_cast<Dim>(
        rng.uniform_int(static_cast<std::uint64_t>(W - object.size)));
    object.y = static_cast<Dim>(
        rng.uniform_int(static_cast<std::uint64_t>(H - object.size)));
    // Reject overlaps so ground truth stays unambiguous.
    bool overlaps = false;
    for (const SceneObject& other : scene.objects) {
      const Dim margin = 4;
      if (object.x < other.x + other.size + margin &&
          other.x < object.x + object.size + margin &&
          object.y < other.y + other.size + margin &&
          other.y < object.y + object.size + margin) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) continue;

    Rng item = rng.split();
    const Tensor render = objects_.render(object.label, item);
    paste_object(scene.frame, render, object);
    scene.objects.push_back(object);
    ++placed;
  }
  return scene;
}

void paste_object(Tensor& frame, const Tensor& render32,
                  const SceneObject& object) {
  MPCNN_CHECK(frame.shape().rank() == 4 && frame.shape()[0] == 1 &&
                  frame.shape()[1] == 3,
              "paste_object expects one RGB frame");
  MPCNN_CHECK(render32.shape() == Shape({1, 3, 32, 32}),
              "paste_object expects a 32x32 render");
  MPCNN_CHECK(object.size >= 1 && object.x >= 0 && object.y >= 0 &&
                  object.x + object.size <= frame.shape()[3] &&
                  object.y + object.size <= frame.shape()[2],
              "object box outside the frame");
  const Dim H = frame.shape()[2], W = frame.shape()[3];
  const float scale = 32.0f / static_cast<float>(object.size);
  resample(render32.data(), 32, 32, Axis{object.size, 0.0f, scale},
           Axis{object.size, 0.0f, scale},
           frame.data() + object.y * W + object.x, W, H * W);
}

std::vector<TileGeometry> tile_grid(Dim height, Dim width, Dim tile,
                                    Dim halo) {
  MPCNN_CHECK(height >= 1 && width >= 1, "empty frame");
  MPCNN_CHECK(tile >= 8, "tile must be >= 8 pixels, got " << tile);
  MPCNN_CHECK(halo >= 0, "halo must be >= 0, got " << halo);
  const Dim rows = (height + tile - 1) / tile;
  const Dim cols = (width + tile - 1) / tile;
  std::vector<TileGeometry> grid;
  grid.reserve(static_cast<std::size_t>(rows * cols));
  for (Dim r = 0; r < rows; ++r) {
    for (Dim c = 0; c < cols; ++c) {
      TileGeometry g;
      g.index = r * cols + c;
      g.row = r;
      g.col = c;
      g.x = c * tile;
      g.y = r * tile;
      g.w = std::min(tile, width - g.x);
      g.h = std::min(tile, height - g.y);
      g.hx = std::max<Dim>(0, g.x - halo);
      g.hy = std::max<Dim>(0, g.y - halo);
      g.hw = std::min(width, g.x + g.w + halo) - g.hx;
      g.hh = std::min(height, g.y + g.h + halo) - g.hy;
      grid.push_back(g);
    }
  }
  return grid;
}

Tensor extract_tile(const Tensor& frame, const TileGeometry& tile) {
  MPCNN_CHECK(frame.shape().rank() == 4 && frame.shape()[0] == 1 &&
                  frame.shape()[1] == 3,
              "extract_tile expects one RGB frame");
  const Dim H = frame.shape()[2], W = frame.shape()[3];
  MPCNN_CHECK(tile.hw >= 1 && tile.hh >= 1 && tile.hx >= 0 &&
                  tile.hy >= 0 && tile.hx + tile.hw <= W &&
                  tile.hy + tile.hh <= H,
              "tile halo rect outside the frame");
  Tensor crop(Shape{1, 3, 32, 32});
  resample(frame.data(), H, W,
           Axis{32, static_cast<float>(tile.hy),
                static_cast<float>(tile.hh) / 32.0f},
           Axis{32, static_cast<float>(tile.hx),
                static_cast<float>(tile.hw) / 32.0f},
           crop.data(), 32, 32 * 32);
  return crop;
}

}  // namespace mpcnn::data
